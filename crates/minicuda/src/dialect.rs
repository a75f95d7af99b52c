//! Surface dialects.
//!
//! WebGPU hosted CUDA, OpenCL, and OpenACC labs (§V). The simulator
//! keeps a single core language (the CUDA dialect) and canonicalizes the
//! other surfaces onto it before lexing:
//!
//! * **OpenCL**: `__kernel` → `__global__`, `__local` → `__shared__`,
//!   the `__global`/`__private` parameter qualifiers are dropped, and
//!   `barrier(CLK_*_MEM_FENCE)` becomes `__syncthreads()`. The
//!   `get_global_id`-family work-item functions are implemented as
//!   intrinsics in the core language, so they pass through untouched.
//! * **OpenACC**: `#pragma acc parallel loop` is handled structurally by
//!   the parser, not here.
//!
//! Canonicalization is token-boundary aware (whole identifiers only) and
//! leaves string literals alone, so diagnostics still show the student's
//! own spelling of everything except the rewritten keyword itself.

/// Which language surface a lab is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// NVIDIA CUDA surface (the default for most labs).
    Cuda,
    /// OpenCL kernel surface.
    OpenCl,
    /// CUDA host surface plus `#pragma acc parallel loop`.
    OpenAcc,
}

impl Dialect {
    /// Name used in lab configuration files.
    pub fn name(self) -> &'static str {
        match self {
            Dialect::Cuda => "cuda",
            Dialect::OpenCl => "opencl",
            Dialect::OpenAcc => "openacc",
        }
    }

    /// Parse a configuration name.
    pub fn parse(s: &str) -> Option<Dialect> {
        match s {
            "cuda" => Some(Dialect::Cuda),
            "opencl" => Some(Dialect::OpenCl),
            "openacc" => Some(Dialect::OpenAcc),
            _ => None,
        }
    }
}

/// Rewrite `source` into the core (CUDA) surface.
pub fn canonicalize(source: &str, dialect: Dialect) -> String {
    match dialect {
        Dialect::Cuda | Dialect::OpenAcc => source.to_string(),
        Dialect::OpenCl => rewrite_opencl(source),
    }
}

fn rewrite_opencl(source: &str) -> String {
    map_identifiers(source, |word| match word {
        "__kernel" | "kernel" => Some("__global__"),
        "__local" => Some("__shared__"),
        "__global" | "__private" | "__constant" | "restrict" => Some(""),
        // OpenCL spells the fence argument as a named constant; the
        // rewritten `barrier` intrinsic ignores its argument entirely,
        // so map the constants to plain integers.
        "CLK_LOCAL_MEM_FENCE" => Some("0"),
        "CLK_GLOBAL_MEM_FENCE" => Some("1"),
        _ => None,
    })
}

/// Replace whole identifiers outside string literals.
fn map_identifiers(source: &str, f: impl Fn(&str) -> Option<&'static str>) -> String {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '"' {
            out.push('"');
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    out.push(bytes[i] as char);
                    i += 1;
                }
                out.push(bytes[i] as char);
                i += 1;
            }
            if i < bytes.len() {
                out.push('"');
                i += 1;
            }
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let word = &source[start..i];
            match f(word) {
                Some(repl) => out.push_str(repl),
                None => out.push_str(word),
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuda_is_identity() {
        let src = "__global__ void k() {}";
        assert_eq!(canonicalize(src, Dialect::Cuda), src);
    }

    #[test]
    fn opencl_kernel_qualifier_mapped() {
        let out = canonicalize("__kernel void vadd(__global float* a) {}", Dialect::OpenCl);
        assert!(out.contains("__global__ void vadd"));
        assert!(out.contains("float* a"));
        assert!(!out.contains("__global f"));
    }

    #[test]
    fn opencl_local_becomes_shared() {
        let out = canonicalize("__local float tile[16];", Dialect::OpenCl);
        assert!(out.contains("__shared__ float tile[16];"));
    }

    #[test]
    fn opencl_barrier_constant_mapped() {
        let out = canonicalize("barrier(CLK_LOCAL_MEM_FENCE);", Dialect::OpenCl);
        assert_eq!(out, "barrier(0);");
    }

    #[test]
    fn strings_untouched() {
        let out = canonicalize("wbLog(TRACE, \"__kernel stays\");", Dialect::OpenCl);
        assert!(out.contains("\"__kernel stays\""));
    }

    #[test]
    fn identifier_substrings_untouched() {
        let out = canonicalize("int __kernel_count = 0;", Dialect::OpenCl);
        // `__kernel_count` is a distinct identifier and must survive.
        assert!(out.contains("__kernel_count"));
    }

    #[test]
    fn dialect_names_roundtrip() {
        for d in [Dialect::Cuda, Dialect::OpenCl, Dialect::OpenAcc] {
            assert_eq!(Dialect::parse(d.name()), Some(d));
        }
        assert_eq!(Dialect::parse("fortran"), None);
    }
}
