//! Course catalog — Table II of the paper.
//!
//! Maps the 15 hosted labs onto the four course offerings:
//! Heterogeneous Parallel Programming (Coursera MOOC), ECE 408 and
//! ECE 598HK at UIUC, and the PUMPS summer school at UPC Barcelona.

/// A row of Table II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabEntry {
    /// Catalog id.
    pub id: &'static str,
    /// Table II display name.
    pub name: &'static str,
    /// Table II description column.
    pub teaches: &'static str,
    /// Which courses use it: `[HPP, 408, 598, PUMPS]`.
    pub courses: [bool; 4],
}

/// One course offering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Course {
    /// Short id (`hpp`, `ece408`, `ece598`, `pumps`).
    pub id: &'static str,
    /// Full name.
    pub name: &'static str,
    /// Column index in Table II.
    pub column: usize,
    /// Weeks the offering runs.
    pub weeks: u32,
    /// Whether the offering used peer review (§IV-D: only the MOOC).
    pub peer_review: bool,
    /// Typical enrollment (sets simulated cohort sizes).
    pub enrollment: u32,
}

/// The four courses of Table II.
pub fn courses() -> Vec<Course> {
    vec![
        Course {
            id: "hpp",
            name: "Heterogeneous Parallel Programming (Coursera)",
            column: 0,
            weeks: 9,
            peer_review: true,
            enrollment: 35_940,
        },
        Course {
            id: "ece408",
            name: "ECE 408 (UIUC)",
            column: 1,
            weeks: 16,
            peer_review: false,
            enrollment: 220,
        },
        Course {
            id: "ece598",
            name: "ECE 598HK (UIUC + 3 partner institutions)",
            column: 2,
            weeks: 16,
            peer_review: false,
            enrollment: 80,
        },
        Course {
            id: "pumps",
            name: "PUMPS summer school (UPC Barcelona)",
            column: 3,
            weeks: 1,
            peer_review: false,
            enrollment: 120,
        },
    ]
}

/// Look up a course.
pub fn course(id: &str) -> Option<Course> {
    courses().into_iter().find(|c| c.id == id)
}

/// The rows of Table II. Course assignments follow the paper's table:
/// intro labs run in HPP and ECE 408, advanced algorithmic labs in
/// ECE 598HK and PUMPS, and the MPI capstone in PUMPS.
pub fn table() -> Vec<LabEntry> {
    vec![
        LabEntry {
            id: "device-query",
            name: "Device Query",
            teaches: "Demo lab to introduce WebGPU to students.",
            courses: [true, true, true, true],
        },
        LabEntry {
            id: "vecadd",
            name: "Vector Addition",
            teaches: "CUDA kernels.",
            courses: [true, true, false, false],
        },
        LabEntry {
            id: "matmul",
            name: "Basic Matrix Multiplication",
            teaches: "Boundary checking and indexing.",
            courses: [true, true, false, false],
        },
        LabEntry {
            id: "tiled-matmul",
            name: "Tiled Matrix Multiplication",
            teaches: "Introduce shared memory tiling.",
            courses: [true, true, false, false],
        },
        LabEntry {
            id: "conv2d",
            name: "2D Convolution",
            teaches: "Constant memory and shared memory.",
            courses: [true, true, false, false],
        },
        LabEntry {
            id: "scan",
            name: "Reduction and Scan",
            teaches: "Floating-point, work-efficiency, tree-like structures.",
            courses: [true, true, false, false],
        },
        LabEntry {
            id: "equalization",
            name: "Image Equalization",
            teaches: "Atomic operations.",
            courses: [true, true, false, false],
        },
        LabEntry {
            id: "opencl-vecadd",
            name: "OpenCL Vector Addition",
            teaches: "OpenCL",
            courses: [true, false, false, false],
        },
        LabEntry {
            id: "scatter-gather",
            name: "Scatter to Gather",
            teaches: "Transformation between scatter and gather.",
            courses: [false, false, true, true],
        },
        LabEntry {
            id: "stencil",
            name: "Stencil",
            teaches: "Register tiling and thread-coarsening.",
            courses: [false, false, true, false],
        },
        LabEntry {
            id: "sgemm",
            name: "SGEMM",
            teaches: "Register tiling and thread-coarsening.",
            courses: [false, false, true, false],
        },
        LabEntry {
            id: "spmv",
            name: "SPMV",
            teaches: "Sparse matrix formats and performance effects.",
            courses: [false, false, true, true],
        },
        LabEntry {
            id: "binning",
            name: "Input Binning",
            teaches: "Input Binning and performance effects.",
            courses: [false, false, true, true],
        },
        LabEntry {
            id: "bfs",
            name: "BFS Queuing",
            teaches: "Hierarchical queuing performance effects.",
            courses: [false, false, true, true],
        },
        LabEntry {
            id: "mpi-stencil",
            name: "Multi-GPU Stencil with MPI",
            teaches: "Multi-GPU programming and MPI.",
            courses: [false, false, false, true],
        },
    ]
}

/// All catalog lab ids in Table II order.
pub fn lab_ids() -> Vec<&'static str> {
    table().into_iter().map(|e| e.id).collect()
}

/// Lab ids used by a course.
pub fn labs_for_course(course_id: &str) -> Vec<&'static str> {
    let Some(c) = course(course_id) else {
        return Vec::new();
    };
    table()
        .into_iter()
        .filter(|e| e.courses[c.column])
        .map(|e| e.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_labs_four_courses() {
        assert_eq!(table().len(), 15);
        assert_eq!(courses().len(), 4);
    }

    #[test]
    fn device_query_everywhere() {
        let e = &table()[0];
        assert!(e.courses.iter().all(|&x| x));
    }

    #[test]
    fn mpi_lab_only_in_pumps() {
        let labs = labs_for_course("pumps");
        assert!(labs.contains(&"mpi-stencil"));
        assert!(!labs_for_course("hpp").contains(&"mpi-stencil"));
        assert!(!labs_for_course("ece408").contains(&"mpi-stencil"));
    }

    #[test]
    fn hpp_is_the_intro_sequence() {
        let labs = labs_for_course("hpp");
        assert!(labs.contains(&"vecadd"));
        assert!(labs.contains(&"opencl-vecadd"));
        assert!(!labs.contains(&"sgemm"));
    }

    #[test]
    fn only_the_mooc_used_peer_review() {
        assert!(course("hpp").unwrap().peer_review);
        assert!(!course("ece408").unwrap().peer_review);
        assert!(!course("ece598").unwrap().peer_review);
        assert!(!course("pumps").unwrap().peer_review);
    }

    #[test]
    fn unknown_course_is_empty() {
        assert!(labs_for_course("cs101").is_empty());
        assert!(course("cs101").is_none());
    }

    #[test]
    fn every_lab_in_at_least_one_course() {
        for e in table() {
            assert!(e.courses.iter().any(|&x| x), "{} orphaned", e.id);
        }
    }
}
