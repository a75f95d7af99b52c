// Sources that fail to compile, each with the exact diagnostic a
// student sees (`line:col: phase: message`), covering every error path
// of the preprocessor, the lexer, the parser and sema. Read with
// `include!` by `tests/front_end.rs`, which compiles each under the
// CUDA dialect.

/// 70 nested parentheses: past the parser's 64-level nesting cap.
const DEEP_PARENS: &str = "int main() { int x = ((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((1)))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))); return 0; }";

/// 70 nested blocks: past the statement nesting cap.
const DEEP_BLOCKS: &str = "int main() { {{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}} return 0; }";

/// A chain of 16 object macros: expanding `D1` takes 16 substitution
/// rounds, one past the cap.
const CHAIN_16: &str = "#define D1 D2\n#define D2 D3\n#define D3 D4\n#define D4 D5\n\
#define D5 D6\n#define D6 D7\n#define D7 D8\n#define D8 D9\n#define D9 D10\n\
#define D10 D11\n#define D11 D12\n#define D12 D13\n#define D13 D14\n#define D14 D15\n\
#define D15 D16\n#define D16 1\nint main() { return D1; }\n";

/// `(name, source, diagnostic)`.
const BROKEN_SOURCES: &[(&str, &str, &str)] = &[
    // ---- preprocess ----------------------------------------------------
    (
        "unterminated string",
        "int main() {\n  wbLog(TRACE, \"oops);\n  return 0;\n}\n",
        "2:1: preprocess error: unterminated string literal",
    ),
    (
        "unterminated string at end of input",
        "int main() { return 0; }\nchar* s = \"oops",
        "2:1: preprocess error: unterminated string literal",
    ),
    (
        "escaped newline in a string",
        "int main() {\n\n  wbLog(TRACE, \"a\\\n\");\n}\n",
        "3:1: preprocess error: unterminated string literal",
    ),
    (
        "unterminated block comment",
        "int x;\n/* never\nclosed\n",
        "2:1: preprocess error: unterminated block comment",
    ),
    (
        "strip errors come before directive errors",
        "#ifdef X\nint main() { return 0; }\n/* open\n",
        "3:1: preprocess error: unterminated block comment",
    ),
    ("define without a name", "\n#define (x) 1\n", "2:1: preprocess error: #define requires a macro name"),
    (
        "function-like macro",
        "#define SQ(x) ((x)*(x))\nint main() { return SQ(2); }\n",
        "1:1: preprocess error: function-like macro \"SQ\" is not supported; use a __device__ function",
    ),
    (
        "recursive define",
        "#define A B\n#define B A\nint main() {\n  return A;\n}\n",
        "4:1: preprocess error: macro expansion did not terminate (recursive #define?)",
    ),
    ("16-deep macro chain", CHAIN_16, "17:1: preprocess error: macro expansion did not terminate (recursive #define?)"),
    ("unsupported directive", "#include <wb.h>\n  #  ifdef FOO\n", "2:1: preprocess error: unsupported preprocessor directive: #ifdef"),
    ("bare hash", "int main() { return 0; }\n#\n", "2:1: preprocess error: unsupported preprocessor directive: #"),
    // ---- lex -------------------------------------------------------------
    (
        "unsupported pragma",
        "int main() {\n    #pragma omp parallel for\n  return 0;\n}\n",
        "2:5: lex error: unsupported pragma: \"#pragma omp parallel for\" (only `#pragma acc parallel loop`)",
    ),
    (
        "unknown escape",
        "int main() {\n  wbLog(TRACE, \"tab\\q\");\n  return 0;\n}\n",
        "2:16: lex error: unknown escape \\q",
    ),
    ("unexpected character", "int main() {\n  int x = 3 $ 4;\n}\n", "2:13: lex error: unexpected character '$'"),
    ("unexpected backtick", "int main() { return `1`; }\n", "1:21: lex error: unexpected character '`'"),
    ("invalid hex literal", "int main() { return 0x; }\n", "1:21: lex error: invalid hex literal"),
    (
        "integer literal overflow",
        "int main() { return 99999999999999999999; }\n",
        "1:21: lex error: invalid integer literal \"99999999999999999999\"",
    ),
    // ---- parse -----------------------------------------------------------
    ("missing type", "int main( { return 0; }\n", "1:11: syntax error: expected a type, found `{`"),
    (
        "missing semicolon",
        "int main() {\n  int x = 1\n  return x;\n}\n",
        "3:3: syntax error: expected `;`, found identifier `return`",
    ),
    ("missing close brace", "int main() {\n  int x = 1;\n", "3:1: syntax error: unexpected end of input inside a block (missing `}`?)"),
    ("expression nesting cap", DEEP_PARENS, "1:85: syntax error: expression nests deeper than 64 levels"),
    ("statement nesting cap", DEEP_BLOCKS, "1:78: syntax error: statements nest deeper than 64 levels"),
    (
        "unknown builtin component",
        "__global__ void k() { int i = threadIdx.w; }\n",
        "1:31: syntax error: unknown component .w (expected .x, .y, or .z)",
    ),
    (
        "scalar shared declaration",
        "__global__ void k() { __shared__ float x; }\n",
        "1:23: syntax error: __shared__ declarations must be arrays (e.g. __shared__ float tile[32];)",
    ),
    (
        "keyword in an expression",
        "int main() { int x = while; return 0; }\n",
        "1:22: syntax error: unexpected keyword `while` in expression",
    ),
    (
        "pragma before a non-loop",
        "int main() {\n#pragma acc parallel loop\n  int x = 0;\n  return 0;\n}\n",
        "2:1: syntax error: #pragma acc parallel loop must be followed by a for loop",
    ),
    ("number as a name", "int main() { int 5 = 3; return 0; }\n", "1:18: syntax error: expected a name, found integer `5`"),
    ("missing expression", "int main() { int x = ; return 0; }\n", "1:22: syntax error: expected an expression, found `;`"),
    ("stray token at top level", "int main() { return 0; }\n;\n", "2:1: syntax error: expected a type, found `;`"),
    // ---- sema ------------------------------------------------------------
    (
        "undeclared variable",
        "int main() {\n  int y = 1;\n  x = y;\n  return 0;\n}\n",
        "3:3: semantic error: use of undeclared variable `x`",
    ),
    (
        "address of an undeclared variable",
        "int main() { int* p; cudaMalloc(&q, 4); return 0; }\n",
        "1:33: semantic error: cannot take the address of undeclared variable `q`",
    ),
    (
        "out of scope after a block",
        "int main() { { int x = 1; } x = 2; return 0; }\n",
        "1:29: semantic error: use of undeclared variable `x`",
    ),
    (
        "function defined twice",
        "int f() { return 0; }\nint f() { return 1; }\n",
        "2:1: semantic error: function `f` is defined twice",
    ),
    (
        "built-in redefined",
        "__device__ float sqrtf(float x) { return x; }\n",
        "1:1: semantic error: `sqrtf` is a built-in function and cannot be redefined",
    ),
    (
        "kernel returns a value",
        "__global__ int k() { return 0; }\n",
        "1:1: semantic error: kernel `k` must return void",
    ),
    ("device main", "__device__ int main() { return 0; }\n", "1:1: semantic error: main must be a host function"),
    (
        "constant without a constant size",
        "__constant__ float c[n];\nint main() { return 0; }\n",
        "1:1: semantic error: __constant__ array `c` needs a constant size",
    ),
    (
        "constant with zero size",
        "__constant__ float c[4 - 4];\nint main() { return 0; }\n",
        "1:1: semantic error: __constant__ array `c` must have positive size",
    ),
    (
        "shared in host code",
        "int main() { __shared__ float t[4]; return 0; }\n",
        "1:14: semantic error: __shared__ declarations are only allowed in device code",
    ),
    (
        "shared with a runtime extent",
        "__global__ void k(int n) { __shared__ float t[n]; }\n",
        "1:28: semantic error: __shared__ array `t` needs constant dimensions",
    ),
    (
        "assignment to a predefined constant",
        "int main() { TRACE = 1; return 0; }\n",
        "1:14: semantic error: cannot assign to `TRACE`, which is not a variable",
    ),
    (
        "break outside a loop",
        "int main() { break; return 0; }\n",
        "1:14: semantic error: break/continue outside of a loop",
    ),
    (
        "launch of an unknown kernel",
        "int main() { k<<<1, 1>>>(); return 0; }\n",
        "1:14: semantic error: unknown kernel `k`",
    ),
    (
        "launch with the wrong arity",
        "__global__ void k(int n) {}\nint main() { k<<<1, 1>>>(); return 0; }\n",
        "2:14: semantic error: kernel `k` expects 1 arguments, 0 given",
    ),
    (
        "host function called from a kernel",
        "int h() { return 0; }\n__global__ void k() { int x = h(); }\n",
        "2:31: semantic error: host function `h` cannot be called from device code",
    ),
    (
        "declaration in a for step",
        "int main() { for (int i = 0; i < 4; int j = 0) {} return 0; }\n",
        "1:37: semantic error: a for-loop step cannot declare a variable",
    ),
    (
        "call to an undefined function",
        "int main() { return nope(1); }\n",
        "1:21: semantic error: call to undefined function `nope`",
    ),
    (
        "bitwise operator on a float",
        "int main() { float f = 1.0; int x = f & 1; return 0; }\n",
        "1:39: semantic error: bitwise operators require integers",
    ),
    (
        "index into a scalar",
        "int main() { int x = 1; int y = x[0]; return 0; }\n",
        "1:34: semantic error: cannot index a value of type int",
    ),
    (
        "pointer cast to a number",
        "int main() { float* p; int x = (int) p; return 0; }\n",
        "1:32: semantic error: cannot cast float* to int",
    ),
    ("void variable", "int main() { void v; return 0; }\n", "1:14: semantic error: variable `v` cannot have type void"),
];

/// Lexer paths that preprocessing never lets through (it rejects an
/// unterminated string first), pinned on the lexer alone.
const LEX_ONLY: &[(&str, &str, &str)] = &[
    ("unterminated string", "int x = \"abc", "1:9: lex error: unterminated string"),
    ("string cut by a newline", "int x = \"abc\nint y;", "1:9: lex error: unterminated string"),
    ("escape at end of input", "\"abc\\", "1:1: lex error: unterminated string"),
];

/// A chain of 15 object macros: 15 rounds expand it, inside the cap.
const CHAIN_15: &str = "#define D1 D2\n#define D2 D3\n#define D3 D4\n#define D4 D5\n\
#define D5 D6\n#define D6 D7\n#define D7 D8\n#define D8 D9\n#define D9 D10\n\
#define D10 D11\n#define D11 D12\n#define D12 D13\n#define D13 D14\n#define D14 D15\n\
#define D15 7\nint main() { return D1; }\n";

/// Sources that preprocess, each with its exact preprocessed text:
/// line structure, directives, comments and macro expansion at their
/// edges.
const PREPROCESSED: &[(&str, &str, &str)] = &[
    ("15-deep macro chain", CHAIN_15, "\n\n\n\n\n\n\n\n\n\n\n\n\n\n\nint main() { return 7; }\n"),
    ("empty source", "", ""),
    ("no final newline", "int a;\nint b;", "int a;\nint b;\n"),
    ("crlf line ends", "int a;\r\n#define N 4\r\nint b = N;\r\n", "int a;\n\nint b = 4;\n"),
    ("bare carriage return at the end", "int a;\r", "int a;\r\n"),
    (
        "comments around directives",
        "/* lead */ #define A 1 // tail\n# /* gap */ define B A\nint x = A + B; /* spans\nlines */ int y = B;\n",
        "\n\nint x = 1 + 1;  \n int y = 1;\n",
    ),
    (
        "define glued to its name and redefined",
        "#defineX 1\nint a = X;\n#define X 2\nint b = X;\n",
        "\nint a = 1;\n\nint b = 2;\n",
    ),
    (
        "macro bodies with strings and empty bodies",
        "#define MSG \"N stays\"\n#define N 8\n#define EMPTY\nwbLog(TRACE, MSG, N EMPTY, \"N\");\n",
        "\n\n\nwbLog(TRACE, \"N stays\", 8 , \"N\");\n",
    ),
    (
        "macros meet numbers and members",
        "#define E e5\n#define X threadIdx\nint a = 1E + X.x + 0xE + E1;\n",
        "\n\nint a = 1e5 + threadIdx.x + 0xE + E1;\n",
    ),
    (
        "include and pragma lines",
        "  #include \"wb.h\"\n#pragma acc parallel loop // why\nfor (;;) {}\n",
        "\n#pragma acc parallel loop \nfor (;;) {}\n",
    ),
    (
        "escapes and comment markers inside strings",
        "wbLog(TRACE, \"a \\\" // b /* c */\"); // gone\n",
        "wbLog(TRACE, \"a \\\" // b /* c */\"); \n",
    ),
];
