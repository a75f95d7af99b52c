//! Cache-key derivation.
//!
//! Soundness rule: a key must cover **every input that can change the
//! phase's output**. The simulated toolchain is deterministic (and the
//! device's `deterministic` flag is itself part of the grade key), so
//! two computations with equal keys produce equal results — which is
//! what makes serving a cached outcome indistinguishable from a fresh
//! execution.
//!
//! * [`CompileKey`] covers the compile phase (source-size gate →
//!   blacklist scan → compile): canonicalized source bytes, dialect,
//!   middle-end opt level (with its kernel-IR revision), container
//!   image / toolchain id, the blacklist's full content ("version"),
//!   and the lab's resource limits.
//! * [`GradeKey`] covers one dataset run: the program identity (the
//!   compile key), the dataset content, the device configuration, the
//!   syscall whitelist content, the float-check tolerance, and the
//!   execution budgets.
//!
//! Invalidation is automatic: instructors don't flush the cache, they
//! change an input (new blacklist pattern, new dataset, new limits) and
//! the key changes with it — old entries age out of the LRU.

use crate::hash::{ContentHash, ContentHasher};
use libwb::{CheckPolicy, Dataset};
use minicuda::{DeviceConfig, Dialect, HostcallPolicy, OptLevel};
use wb_sandbox::{Blacklist, ResourceLimits, SyscallWhitelist};

/// Key for the compile phase of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompileKey(pub ContentHash);

/// Key for one dataset grading run of a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GradeKey(pub ContentHash);

/// Canonicalize submission text for keying: normalize CR/CRLF line
/// endings to LF. Nothing further — aggressive canonicalization (e.g.
/// trimming) risks merging sources whose diagnostics differ, which
/// would break the hit ≡ fresh-execution property.
pub fn canonicalize_source(source: &str) -> std::borrow::Cow<'_, str> {
    if source.contains('\r') {
        std::borrow::Cow::Owned(source.replace("\r\n", "\n").replace('\r', "\n"))
    } else {
        std::borrow::Cow::Borrowed(source)
    }
}

fn write_limits(h: &mut ContentHasher, limits: &ResourceLimits) {
    h.write_usize(limits.max_source_bytes)
        .write_i64(limits.max_warp_instructions)
        .write_u64(limits.max_host_steps)
        .write_usize(limits.max_log_bytes)
        .write_usize(limits.world_size);
}

fn write_device(h: &mut ContentHasher, device: &DeviceConfig) {
    h.write_str(&device.name)
        .write_usize(device.num_sms)
        .write_usize(device.warp_size)
        .write_usize(device.max_threads_per_block)
        .write_usize(device.max_shared_bytes)
        .write_usize(device.global_mem_words)
        .write_usize(device.const_mem_bytes)
        .write_u64(device.clock_khz)
        .write_bool(device.deterministic);
    for d in device
        .max_block_dim
        .iter()
        .chain(device.max_grid_dim.iter())
    {
        h.write_i64(*d);
    }
}

fn write_dataset(h: &mut ContentHasher, d: &Dataset) {
    match d {
        Dataset::Vector(v) => {
            h.write_u64(0).write_f32s(v);
        }
        Dataset::IntVector(v) => {
            h.write_u64(1).write_u64(v.len() as u64);
            for &x in v {
                h.write_i64(x as i64);
            }
        }
        Dataset::Matrix { rows, cols, data } => {
            h.write_u64(2)
                .write_usize(*rows)
                .write_usize(*cols)
                .write_f32s(data);
        }
        Dataset::Image(img) => {
            h.write_u64(3)
                .write_usize(img.width())
                .write_usize(img.height())
                .write_usize(img.channels())
                .write_f32s(img.data());
        }
        Dataset::Sparse(m) => {
            h.write_u64(4)
                .write_usize(m.rows())
                .write_usize(m.cols())
                .write_usizes(m.row_ptr())
                .write_usizes(m.col_idx())
                .write_f32s(m.values());
        }
        Dataset::Graph(g) => {
            h.write_u64(5)
                .write_usize(g.num_nodes())
                .write_usizes(g.row_ptr())
                .write_usizes(g.neighbors());
        }
        Dataset::Scalar(v) => {
            h.write_u64(6).write_f32(*v);
        }
    }
}

impl CompileKey {
    /// Derive the key for a submission's compile phase.
    ///
    /// `toolchain` is the lab's required toolchain and `image` the
    /// container image that provides it — different toolchain stacks
    /// may compile the same bytes differently, so both are part of the
    /// key even though the simulator has a single compiler. `opt`
    /// contributes its [`OptLevel::fingerprint`], which also encodes
    /// the kernel-IR revision: bumping `ir::IR_VERSION` re-keys every
    /// optimized compile without touching this function.
    ///
    /// `analyze` records whether the static verifier ran alongside the
    /// compile: entries produced with analysis off carry no findings,
    /// so they must never be served to a policy that expects them (and
    /// vice versa). The verifier's verdict is policy-independent —
    /// `Warn` and `Deny` share entries.
    #[allow(clippy::too_many_arguments)]
    pub fn derive(
        source: &str,
        dialect: Dialect,
        opt: OptLevel,
        analyze: bool,
        toolchain: &str,
        image: &str,
        blacklist: &Blacklist,
        limits: &ResourceLimits,
    ) -> CompileKey {
        let mut h = ContentHasher::new();
        h.write_str("compile-v3");
        h.write_bool(analyze);
        h.write_str(&canonicalize_source(source));
        h.write_str(dialect.name());
        h.write_str(&opt.fingerprint());
        h.write_str(toolchain);
        h.write_str(image);
        // The blacklist "version" is its full content: any edit to the
        // pattern set or scan mode re-keys every submission.
        h.write_u64(blacklist.patterns().len() as u64);
        for p in blacklist.patterns() {
            h.write_str(p);
        }
        h.write_str(match blacklist.mode() {
            wb_sandbox::ScanMode::RawText => "raw",
            wb_sandbox::ScanMode::Preprocessed => "preprocessed",
        });
        write_limits(&mut h, limits);
        CompileKey(h.finish())
    }
}

impl GradeKey {
    /// Derive the key for one dataset run of a compiled program.
    #[allow(clippy::too_many_arguments)]
    pub fn derive(
        program: CompileKey,
        case_name: &str,
        inputs: &[Dataset],
        expected: &Dataset,
        device: &DeviceConfig,
        whitelist: &SyscallWhitelist,
        check: &CheckPolicy,
        limits: &ResourceLimits,
    ) -> GradeKey {
        let mut h = ContentHasher::new();
        h.write_str("grade-v1");
        h.write_raw(&program.0 .0.to_le_bytes());
        h.write_str(case_name);
        h.write_u64(inputs.len() as u64);
        for d in inputs {
            write_dataset(&mut h, d);
        }
        write_dataset(&mut h, expected);
        write_device(&mut h, device);
        // The whitelist "version" is its full content, like the
        // blacklist's: profile name plus the allowed-call set.
        h.write_str(whitelist.name());
        h.write_u64(whitelist.calls().count() as u64);
        for c in whitelist.calls() {
            h.write_str(c);
        }
        h.write_f32(check.abs_tol)
            .write_f32(check.rel_tol)
            .write_usize(check.max_reported);
        write_limits(&mut h, limits);
        GradeKey(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int main() { return 0; }";

    fn base_compile() -> CompileKey {
        CompileKey::derive(
            SRC,
            Dialect::Cuda,
            OptLevel::default(),
            false,
            "cuda",
            "webgpu/cuda",
            &Blacklist::standard(),
            &ResourceLimits::default(),
        )
    }

    #[test]
    fn identical_inputs_identical_keys() {
        assert_eq!(base_compile(), base_compile());
    }

    #[test]
    fn crlf_and_lf_sources_share_a_key() {
        let crlf = SRC.replace('\n', "\r\n");
        let k = CompileKey::derive(
            &crlf,
            Dialect::Cuda,
            OptLevel::default(),
            false,
            "cuda",
            "webgpu/cuda",
            &Blacklist::standard(),
            &ResourceLimits::default(),
        );
        assert_eq!(k, base_compile());
    }

    #[test]
    fn every_compile_component_is_load_bearing() {
        let b = base_compile();
        let differing = [
            CompileKey::derive(
                "int main() { return 1; }",
                Dialect::Cuda,
                OptLevel::default(),
                false,
                "cuda",
                "webgpu/cuda",
                &Blacklist::standard(),
                &ResourceLimits::default(),
            ),
            CompileKey::derive(
                SRC,
                Dialect::OpenCl,
                OptLevel::default(),
                false,
                "cuda",
                "webgpu/cuda",
                &Blacklist::standard(),
                &ResourceLimits::default(),
            ),
            CompileKey::derive(
                SRC,
                Dialect::Cuda,
                OptLevel::default(),
                false,
                "mpi",
                "webgpu/cuda",
                &Blacklist::standard(),
                &ResourceLimits::default(),
            ),
            CompileKey::derive(
                SRC,
                Dialect::Cuda,
                OptLevel::default(),
                false,
                "cuda",
                "webgpu/full",
                &Blacklist::standard(),
                &ResourceLimits::default(),
            ),
            CompileKey::derive(
                SRC,
                Dialect::Cuda,
                OptLevel::default(),
                false,
                "cuda",
                "webgpu/cuda",
                &Blacklist::permissive(),
                &ResourceLimits::default(),
            ),
            CompileKey::derive(
                SRC,
                Dialect::Cuda,
                OptLevel::default(),
                false,
                "cuda",
                "webgpu/cuda",
                &Blacklist::standard(),
                &ResourceLimits::strict(),
            ),
            CompileKey::derive(
                SRC,
                Dialect::Cuda,
                OptLevel::O0,
                false,
                "cuda",
                "webgpu/cuda",
                &Blacklist::standard(),
                &ResourceLimits::default(),
            ),
            CompileKey::derive(
                SRC,
                Dialect::Cuda,
                OptLevel::default(),
                true,
                "cuda",
                "webgpu/cuda",
                &Blacklist::standard(),
                &ResourceLimits::default(),
            ),
        ];
        for (i, k) in differing.iter().enumerate() {
            assert_ne!(b, *k, "component {i} did not change the key");
        }
    }

    #[test]
    fn grade_key_depends_on_dataset_and_policy() {
        let p = base_compile();
        let dev = DeviceConfig::test_small();
        let wl = SyscallWhitelist::cuda_default();
        let check = CheckPolicy::default();
        let limits = ResourceLimits::default();
        let inputs = vec![Dataset::Vector(vec![1.0, 2.0])];
        let expected = Dataset::Vector(vec![3.0]);
        let base = GradeKey::derive(p, "d0", &inputs, &expected, &dev, &wl, &check, &limits);
        // Same everything → same key.
        assert_eq!(
            base,
            GradeKey::derive(p, "d0", &inputs, &expected, &dev, &wl, &check, &limits)
        );
        // Each varying component re-keys.
        let other_inputs = vec![Dataset::Vector(vec![1.0, 2.5])];
        assert_ne!(
            base,
            GradeKey::derive(
                p,
                "d0",
                &other_inputs,
                &expected,
                &dev,
                &wl,
                &check,
                &limits
            )
        );
        assert_ne!(
            base,
            GradeKey::derive(p, "d1", &inputs, &expected, &dev, &wl, &check, &limits)
        );
        assert_ne!(
            base,
            GradeKey::derive(
                p,
                "d0",
                &inputs,
                &expected,
                &DeviceConfig::default(),
                &wl,
                &check,
                &limits
            )
        );
        assert_ne!(
            base,
            GradeKey::derive(
                p,
                "d0",
                &inputs,
                &expected,
                &dev,
                &SyscallWhitelist::mpi_profile(),
                &check,
                &limits
            )
        );
        assert_ne!(
            base,
            GradeKey::derive(
                p,
                "d0",
                &inputs,
                &expected,
                &dev,
                &wl,
                &CheckPolicy::exact(),
                &limits
            )
        );
    }

    #[test]
    fn dataset_kinds_never_alias() {
        // A vector [0.0] and a scalar 0.0 carry the same payload bits;
        // the variant tag must separate them.
        let p = base_compile();
        let dev = DeviceConfig::test_small();
        let wl = SyscallWhitelist::cuda_default();
        let check = CheckPolicy::default();
        let limits = ResourceLimits::default();
        let as_vec = GradeKey::derive(
            p,
            "d",
            &[],
            &Dataset::Vector(vec![0.0]),
            &dev,
            &wl,
            &check,
            &limits,
        );
        let as_scalar = GradeKey::derive(
            p,
            "d",
            &[],
            &Dataset::Scalar(0.0),
            &dev,
            &wl,
            &check,
            &limits,
        );
        assert_ne!(as_vec, as_scalar);
    }
}
