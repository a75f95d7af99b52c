//! Recursive-descent parser with precedence climbing for expressions.
//!
//! The grammar is a C subset extended with CUDA constructs: function
//! qualifiers (`__global__`, `__device__`), `__shared__`/`__constant__`
//! array declarations, launch configurations (`k<<<grid, block>>>(...)`),
//! `dim3(x, y, z)` dimension expressions, and grid builtins
//! (`threadIdx.x` …). Error messages name the offending token because
//! they are shown verbatim to students in the code view.

use crate::ast::*;
use crate::diag::{Diag, Phase, Pos};
use crate::token::{unescape, Tok, Token};

/// Parse a token stream into a translation unit. The unit owns its
/// names: each is copied out of the source once, into the node that
/// keeps it.
pub fn parse(tokens: Vec<Token<'_>>) -> Result<Unit, Diag> {
    let mut p = Parser {
        tokens,
        at: 0,
        depth: 0,
        // The lab solutions hold at most 38 statements in open blocks
        // and 8 call arguments at once (bfs), so neither stack grows.
        stmts: Vec::with_capacity(48),
        exprs: Vec::with_capacity(16),
    };
    let mut items = Vec::new();
    while !p.check_eof() {
        items.push(p.item()?);
    }
    Ok(Unit { items })
}

/// Maximum expression/statement nesting depth. The parser is recursive
/// descent; without a cap, a hostile submission of 100k nested parens
/// would overflow the worker's stack instead of producing a diagnostic.
/// 64 comfortably exceeds C's own minimum translation limit (63 levels
/// of parenthesized expressions, C11 §5.2.4.1) while keeping the
/// recursion shallow enough for a 2 MB thread stack in debug builds.
const MAX_NESTING: usize = 64;

struct Parser<'src> {
    tokens: Vec<Token<'src>>,
    at: usize,
    depth: usize,
    /// The statements of every block still being parsed, innermost
    /// last: a block collects its own off the top into one exact-size
    /// `Vec`, so no block vector grows or is trimmed.
    stmts: Vec<Stmt>,
    /// The same for the arguments of every call still being parsed.
    exprs: Vec<Expr>,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> &Tok<'src> {
        &self.tokens[self.at].kind
    }

    fn peek2(&self) -> &Tok<'src> {
        &self.tokens[(self.at + 1).min(self.tokens.len() - 1)].kind
    }

    fn pos(&self) -> Pos {
        self.tokens[self.at].pos
    }

    fn advance(&mut self) -> Tok<'src> {
        let t = self.tokens[self.at].kind;
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn check_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn err(&self, message: impl Into<String>) -> Diag {
        Diag::new(Phase::Parse, self.pos(), message)
    }

    fn eat(&mut self, want: Tok<'_>) -> Result<(), Diag> {
        if *self.peek() == want {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {}, found {}",
                want.describe(),
                self.peek().describe()
            )))
        }
    }

    fn eat_ident(&mut self) -> Result<&'src str, Diag> {
        match *self.peek() {
            Tok::Ident(name) if !is_keyword(name) => {
                self.advance();
                Ok(name)
            }
            other => Err(self.err(format!("expected a name, found {}", other.describe()))),
        }
    }

    fn is_word(&self, w: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if *s == w)
    }

    fn eat_word(&mut self, w: &str) -> bool {
        if self.is_word(w) {
            self.advance();
            true
        } else {
            false
        }
    }

    // ---- top level ----------------------------------------------------

    fn item(&mut self) -> Result<Item, Diag> {
        let pos = self.pos();
        if self.eat_word("__constant__") {
            let elem = self.base_type()?;
            let name = self.eat_ident()?;
            self.eat(Tok::LBracket)?;
            let size = self.expr()?;
            self.eat(Tok::RBracket)?;
            self.eat(Tok::Semi)?;
            return Ok(Item::Constant(ConstantDef {
                elem,
                name: name.to_string(),
                size,
                pos,
            }));
        }
        let kind = if self.eat_word("__global__") {
            FuncKind::Kernel
        } else if self.eat_word("__device__") {
            FuncKind::Device
        } else {
            FuncKind::Host
        };
        let ret = self.typ()?;
        let name = self.eat_ident()?;
        self.eat(Tok::LParen)?;
        let params = self.params()?;
        self.eat(Tok::RParen)?;
        let body = self.block()?;
        Ok(Item::Func(FuncDef {
            kind,
            ret,
            name: name.to_string(),
            params,
            body,
            pos,
            frame: Vec::new(),
        }))
    }

    fn params(&mut self) -> Result<Vec<Param>, Diag> {
        let mut params = Vec::new();
        if matches!(self.peek(), Tok::RParen) {
            return Ok(params);
        }
        if self.is_word("void") && matches!(self.peek2(), Tok::RParen) {
            self.advance();
            return Ok(params);
        }
        loop {
            let ty = self.typ()?;
            let name = self.eat_ident()?;
            // `float a[]` parameter form: same as a pointer.
            let ty = if *self.peek() == Tok::LBracket {
                self.advance();
                self.eat(Tok::RBracket)?;
                ty.ptr_to()
            } else {
                ty
            };
            params.push(Param {
                ty,
                name: name.to_string(),
            });
            if *self.peek() == Tok::Comma {
                self.advance();
            } else {
                break;
            }
        }
        Ok(params)
    }

    // ---- types ---------------------------------------------------------

    fn base_type(&mut self) -> Result<Type, Diag> {
        self.eat_word("const");
        let t = if self.eat_word("void") {
            Type::Void
        } else if self.eat_word("int") || self.eat_word("long") || self.eat_word("size_t") {
            Type::Int
        } else if self.eat_word("unsigned") {
            self.eat_word("int"); // `unsigned int` or bare `unsigned`
            Type::Int
        } else if self.eat_word("float") || self.eat_word("double") {
            // Labs occasionally write `double` for host accumulators; the
            // device is single-precision, so both map to f32.
            Type::Float
        } else if self.eat_word("bool") {
            Type::Bool
        } else {
            return Err(self.err(format!("expected a type, found {}", self.peek().describe())));
        };
        Ok(t)
    }

    fn typ(&mut self) -> Result<Type, Diag> {
        let mut t = self.base_type()?;
        while *self.peek() == Tok::Star {
            self.advance();
            self.eat_word("const");
            t = t.ptr_to();
        }
        Ok(t)
    }

    fn at_type(&self) -> bool {
        matches!(self.peek(), Tok::Ident(w) if matches!(
            *w,
            "void" | "int" | "float" | "bool" | "unsigned" | "const" | "long" | "size_t" | "double"
        ))
    }

    // ---- statements ----------------------------------------------------

    fn block(&mut self) -> Result<Block, Diag> {
        self.eat(Tok::LBrace)?;
        let base = self.stmts.len();
        while *self.peek() != Tok::RBrace {
            if self.check_eof() {
                return Err(self.err("unexpected end of input inside a block (missing `}`?)"));
            }
            let s = self.stmt()?;
            self.stmts.push(s);
        }
        self.eat(Tok::RBrace)?;
        // Compiled programs keep their AST, and the cache keeps compiled
        // programs: the block's vector is allocated at its exact size.
        let stmts = self.stmts.drain(base..).collect();
        Ok(Block { stmts })
    }

    /// A statement, wrapping single statements after `if`/loops in blocks.
    fn body_block(&mut self) -> Result<Block, Diag> {
        if *self.peek() == Tok::LBrace {
            self.block()
        } else {
            let s = self.stmt()?;
            Ok(Block { stmts: vec![s] })
        }
    }

    fn stmt(&mut self) -> Result<Stmt, Diag> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            self.depth -= 1;
            return Err(self.err(format!("statements nest deeper than {MAX_NESTING} levels")));
        }
        let result = self.stmt_inner();
        self.depth -= 1;
        result
    }

    fn stmt_inner(&mut self) -> Result<Stmt, Diag> {
        let pos = self.pos();
        match self.peek() {
            Tok::PragmaAccParallelLoop => {
                self.advance();
                let inner = self.stmt()?;
                if !matches!(inner, Stmt::For { .. }) {
                    return Err(Diag::new(
                        Phase::Parse,
                        pos,
                        "#pragma acc parallel loop must be followed by a for loop",
                    ));
                }
                Ok(Stmt::AccParallelLoop {
                    body: Box::new(inner),
                    pos,
                })
            }
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::Semi => {
                self.advance();
                Ok(Stmt::Block(Block::default()))
            }
            Tok::Ident(w) => match *w {
                "__shared__" => self.shared_decl(),
                "if" => self.if_stmt(),
                "while" => self.while_stmt(),
                "for" => self.for_stmt(),
                "return" => {
                    self.advance();
                    let value = if *self.peek() == Tok::Semi {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.eat(Tok::Semi)?;
                    Ok(Stmt::Return { value, pos })
                }
                "break" => {
                    self.advance();
                    self.eat(Tok::Semi)?;
                    Ok(Stmt::Break(pos))
                }
                "continue" => {
                    self.advance();
                    self.eat(Tok::Semi)?;
                    Ok(Stmt::Continue(pos))
                }
                _ => {
                    let s = self.simple_stmt()?;
                    self.eat(Tok::Semi)?;
                    Ok(s)
                }
            },
            _ => {
                let s = self.simple_stmt()?;
                self.eat(Tok::Semi)?;
                Ok(s)
            }
        }
    }

    /// Declaration, assignment, launch, or expression — the statement
    /// forms legal in `for(...)` headers (no trailing semicolon here).
    fn simple_stmt(&mut self) -> Result<Stmt, Diag> {
        let pos = self.pos();
        if self.at_type() {
            return self.decl();
        }
        // Kernel launch?
        if let Tok::Ident(name) = self.peek() {
            if !is_keyword(name) && *self.peek2() == Tok::LaunchOpen {
                return self.launch();
            }
        }
        // Prefix increment/decrement.
        if matches!(self.peek(), Tok::PlusPlus | Tok::MinusMinus) {
            let inc = matches!(self.advance(), Tok::PlusPlus);
            let target = self.unary()?;
            return Ok(self.make_incdec(target, inc, pos));
        }
        let e = self.expr()?;
        let op = match self.peek() {
            Tok::Eq => None,
            Tok::PlusEq => Some(BinOp::Add),
            Tok::MinusEq => Some(BinOp::Sub),
            Tok::StarEq => Some(BinOp::Mul),
            Tok::SlashEq => Some(BinOp::Div),
            Tok::PercentEq => Some(BinOp::Rem),
            Tok::AmpEq => Some(BinOp::BitAnd),
            Tok::PipeEq => Some(BinOp::BitOr),
            Tok::CaretEq => Some(BinOp::BitXor),
            Tok::ShlEq => Some(BinOp::Shl),
            Tok::ShrEq => Some(BinOp::Shr),
            Tok::PlusPlus => {
                self.advance();
                return Ok(self.make_incdec(e, true, pos));
            }
            Tok::MinusMinus => {
                self.advance();
                return Ok(self.make_incdec(e, false, pos));
            }
            _ => return Ok(Stmt::Expr(e)),
        };
        self.advance();
        let value = self.expr()?;
        Ok(Stmt::Assign {
            target: e,
            op,
            value,
            pos,
        })
    }

    fn make_incdec(&self, target: Expr, inc: bool, pos: Pos) -> Stmt {
        Stmt::Assign {
            target,
            op: Some(if inc { BinOp::Add } else { BinOp::Sub }),
            value: Expr::int(1, pos),
            pos,
        }
    }

    fn decl(&mut self) -> Result<Stmt, Diag> {
        let pos = self.pos();
        let base = self.base_type()?;
        let first = self.declarator(&base, pos)?;
        if *self.peek() != Tok::Comma {
            return Ok(first);
        }
        let mut decls = vec![first];
        while *self.peek() == Tok::Comma {
            self.advance();
            decls.push(self.declarator(&base, pos)?);
        }
        Ok(Stmt::Block(Block { stmts: decls }))
    }

    /// One `*name = init` of a declaration whose base type is `base`.
    fn declarator(&mut self, base: &Type, pos: Pos) -> Result<Stmt, Diag> {
        let mut ty = base.clone();
        while *self.peek() == Tok::Star {
            self.advance();
            ty = ty.ptr_to();
        }
        let name = self.eat_ident()?;
        let init = if *self.peek() == Tok::Eq {
            self.advance();
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Decl {
            ty,
            name: name.to_string(),
            init,
            pos,
            slot: UNBOUND,
        })
    }

    fn shared_decl(&mut self) -> Result<Stmt, Diag> {
        let pos = self.pos();
        self.advance(); // __shared__
        let elem = self.base_type()?;
        let name = self.eat_ident()?;
        let mut dims = Vec::new();
        while *self.peek() == Tok::LBracket {
            self.advance();
            dims.push(self.expr()?);
            self.eat(Tok::RBracket)?;
        }
        if dims.is_empty() {
            return Err(Diag::new(
                Phase::Parse,
                pos,
                "__shared__ declarations must be arrays (e.g. __shared__ float tile[32];)",
            ));
        }
        self.eat(Tok::Semi)?;
        Ok(Stmt::SharedDecl {
            elem,
            name: name.to_string(),
            dims,
            pos,
            slot: UNBOUND,
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, Diag> {
        let pos = self.pos();
        self.advance(); // if
        self.eat(Tok::LParen)?;
        let cond = self.expr()?;
        self.eat(Tok::RParen)?;
        let then_blk = self.body_block()?;
        let else_blk = if self.is_word("else") {
            self.advance();
            Some(self.body_block()?)
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_blk,
            else_blk,
            pos,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, Diag> {
        let pos = self.pos();
        self.advance(); // while
        self.eat(Tok::LParen)?;
        let cond = self.expr()?;
        self.eat(Tok::RParen)?;
        let body = self.body_block()?;
        Ok(Stmt::While { cond, body, pos })
    }

    fn for_stmt(&mut self) -> Result<Stmt, Diag> {
        let pos = self.pos();
        self.advance(); // for
        self.eat(Tok::LParen)?;
        let init = if *self.peek() == Tok::Semi {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.eat(Tok::Semi)?;
        let cond = if *self.peek() == Tok::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.eat(Tok::Semi)?;
        let step = if *self.peek() == Tok::RParen {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.eat(Tok::RParen)?;
        let body = self.body_block()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            pos,
        })
    }

    fn launch(&mut self) -> Result<Stmt, Diag> {
        let pos = self.pos();
        let kernel = self.eat_ident()?;
        self.eat(Tok::LaunchOpen)?;
        let grid = Box::new(self.dim3()?);
        self.eat(Tok::Comma)?;
        let block = Box::new(self.dim3()?);
        // Optional third config argument (dynamic shared memory size):
        // parsed and ignored — labs use static `__shared__` arrays.
        if *self.peek() == Tok::Comma {
            self.advance();
            let _ = self.expr()?;
        }
        self.eat(Tok::LaunchClose)?;
        let args = self.args()?;
        Ok(Stmt::Launch {
            kernel: kernel.to_string(),
            grid,
            block,
            args,
            pos,
        })
    }

    /// A parenthesized argument list, collected like a block's
    /// statements.
    fn args(&mut self) -> Result<Vec<Expr>, Diag> {
        self.eat(Tok::LParen)?;
        let base = self.exprs.len();
        if *self.peek() != Tok::RParen {
            loop {
                let arg = self.expr()?;
                self.exprs.push(arg);
                if *self.peek() == Tok::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.eat(Tok::RParen)?;
        Ok(self.exprs.drain(base..).collect())
    }

    fn dim3(&mut self) -> Result<Dim3Expr, Diag> {
        if self.is_word("dim3") {
            self.advance();
            self.eat(Tok::LParen)?;
            let x = self.expr()?;
            let mut y = None;
            let mut z = None;
            if *self.peek() == Tok::Comma {
                self.advance();
                y = Some(self.expr()?);
                if *self.peek() == Tok::Comma {
                    self.advance();
                    z = Some(self.expr()?);
                }
            }
            self.eat(Tok::RParen)?;
            Ok(Dim3Expr { x, y, z })
        } else {
            Ok(Dim3Expr {
                x: self.expr()?,
                y: None,
                z: None,
            })
        }
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr, Diag> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, Diag> {
        let cond = self.binary(0)?;
        if *self.peek() == Tok::Question {
            let pos = self.pos();
            self.advance();
            let a = self.expr()?;
            self.eat(Tok::Colon)?;
            let b = self.ternary()?;
            Ok(Expr::new(
                ExprKind::Ternary(Box::new(cond), Box::new(a), Box::new(b)),
                pos,
            ))
        } else {
            Ok(cond)
        }
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, Diag> {
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::PipePipe => (BinOp::Or, 1),
                Tok::AmpAmp => (BinOp::And, 2),
                Tok::Pipe => (BinOp::BitOr, 3),
                Tok::Caret => (BinOp::BitXor, 4),
                Tok::Amp => (BinOp::BitAnd, 5),
                Tok::EqEq => (BinOp::Eq, 6),
                Tok::NotEq => (BinOp::Ne, 6),
                Tok::Lt => (BinOp::Lt, 7),
                Tok::Le => (BinOp::Le, 7),
                Tok::Gt => (BinOp::Gt, 7),
                Tok::Ge => (BinOp::Ge, 7),
                Tok::Shl => (BinOp::Shl, 8),
                Tok::Shr => (BinOp::Shr, 8),
                Tok::Plus => (BinOp::Add, 9),
                Tok::Minus => (BinOp::Sub, 9),
                Tok::Star => (BinOp::Mul, 10),
                Tok::Slash => (BinOp::Div, 10),
                Tok::Percent => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let pos = self.pos();
            self.advance();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), pos);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, Diag> {
        self.depth += 1;
        let guard_exceeded = self.depth > MAX_NESTING;
        let result = self.unary_inner(guard_exceeded);
        self.depth -= 1;
        result
    }

    fn unary_inner(&mut self, guard_exceeded: bool) -> Result<Expr, Diag> {
        if guard_exceeded {
            return Err(self.err(format!("expression nests deeper than {MAX_NESTING} levels")));
        }
        let pos = self.pos();
        match self.peek() {
            Tok::Minus => {
                self.advance();
                let e = self.unary()?;
                Ok(Expr::new(ExprKind::Unary(UnOp::Neg, Box::new(e)), pos))
            }
            Tok::Bang => {
                self.advance();
                let e = self.unary()?;
                Ok(Expr::new(ExprKind::Unary(UnOp::Not, Box::new(e)), pos))
            }
            Tok::Tilde => {
                self.advance();
                let e = self.unary()?;
                Ok(Expr::new(ExprKind::Unary(UnOp::BitNot, Box::new(e)), pos))
            }
            Tok::Amp => {
                self.advance();
                let name = self.eat_ident()?;
                if *self.peek() == Tok::LBracket {
                    // `&arr[i]` is plain pointer arithmetic: `arr + i`
                    // (chained for `&t[i][j]` on shared arrays).
                    let var = ExprKind::Var(name.to_string(), Binding::Slot(UNBOUND));
                    let mut e = Expr::new(var, pos);
                    e = self.postfix(e)?;
                    if let ExprKind::Index(base, idx) = e.kind {
                        return Ok(Expr::new(ExprKind::Binary(BinOp::Add, base, idx), pos));
                    }
                    unreachable!("postfix after `[` yields an index");
                }
                Ok(Expr::new(ExprKind::AddrOf(name.to_string(), UNBOUND), pos))
            }
            Tok::LParen => {
                // Cast or parenthesized expression.
                let save = self.at;
                self.advance();
                if self.at_type() {
                    let ty = self.typ()?;
                    if *self.peek() == Tok::RParen {
                        self.advance();
                        let e = self.unary()?;
                        return Ok(Expr::new(ExprKind::Cast(ty, Box::new(e)), pos));
                    }
                }
                self.at = save;
                self.advance(); // (
                let e = self.expr()?;
                self.eat(Tok::RParen)?;
                self.postfix(e)
            }
            _ => {
                let e = self.primary()?;
                self.postfix(e)
            }
        }
    }

    fn postfix(&mut self, mut e: Expr) -> Result<Expr, Diag> {
        while *self.peek() == Tok::LBracket {
            let pos = self.pos();
            self.advance();
            let idx = self.expr()?;
            self.eat(Tok::RBracket)?;
            e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)), pos);
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, Diag> {
        let pos = self.pos();
        match self.advance() {
            Tok::Int(v) => Ok(Expr::int(v, pos)),
            Tok::Float(v) => Ok(Expr::new(ExprKind::FloatLit(v), pos)),
            Tok::Str(raw) => Ok(Expr::new(ExprKind::StrLit(unescape(raw)), pos)),
            Tok::Ident(name) => {
                match name {
                    "true" => return Ok(Expr::int(1, pos)),
                    "false" => return Ok(Expr::int(0, pos)),
                    "sizeof" => {
                        self.eat(Tok::LParen)?;
                        let ty = self.typ()?;
                        self.eat(Tok::RParen)?;
                        return Ok(Expr::new(ExprKind::SizeOf(ty), pos));
                    }
                    _ => {}
                }
                // Builtin dim3 variables: `threadIdx.x`
                if let Some(builtin) = builtin_var(name) {
                    self.eat(Tok::Dot)?;
                    let axis = match self.eat_ident()? {
                        "x" => 0,
                        "y" => 1,
                        "z" => 2,
                        other => {
                            return Err(Diag::new(
                                Phase::Parse,
                                pos,
                                format!("unknown component .{other} (expected .x, .y, or .z)"),
                            ))
                        }
                    };
                    return Ok(Expr::new(ExprKind::Builtin(builtin, axis), pos));
                }
                if is_keyword(name) {
                    return Err(Diag::new(
                        Phase::Parse,
                        pos,
                        format!("unexpected keyword `{name}` in expression"),
                    ));
                }
                if *self.peek() == Tok::LParen {
                    let args = self.args()?;
                    return Ok(Expr::new(ExprKind::Call(name.to_string(), args), pos));
                }
                let var = ExprKind::Var(name.to_string(), Binding::Slot(UNBOUND));
                Ok(Expr::new(var, pos))
            }
            other => Err(Diag::new(
                Phase::Parse,
                pos,
                format!("expected an expression, found {}", other.describe()),
            )),
        }
    }
}

fn builtin_var(name: &str) -> Option<BuiltinVar> {
    match name {
        "threadIdx" => Some(BuiltinVar::ThreadIdx),
        "blockIdx" => Some(BuiltinVar::BlockIdx),
        "blockDim" => Some(BuiltinVar::BlockDim),
        "gridDim" => Some(BuiltinVar::GridDim),
        _ => None,
    }
}

fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "void"
            | "int"
            | "float"
            | "double"
            | "bool"
            | "unsigned"
            | "const"
            | "long"
            | "size_t"
            | "if"
            | "else"
            | "while"
            | "for"
            | "return"
            | "break"
            | "continue"
            | "sizeof"
            | "dim3"
            | "true"
            | "false"
            | "__global__"
            | "__device__"
            | "__shared__"
            | "__constant__"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Result<Unit, Diag> {
        parse(lex(src).expect("lexes"))
    }

    fn first_func(unit: &Unit) -> &FuncDef {
        match &unit.items[0] {
            Item::Func(f) => f,
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn parse_empty_main() {
        let u = parse_src("int main() { return 0; }").unwrap();
        let f = first_func(&u);
        assert_eq!(f.name, "main");
        assert_eq!(f.kind, FuncKind::Host);
        assert_eq!(f.ret, Type::Int);
    }

    #[test]
    fn parse_kernel_with_params() {
        let u = parse_src("__global__ void k(float* a, int n) {}").unwrap();
        let f = first_func(&u);
        assert_eq!(f.kind, FuncKind::Kernel);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].ty, Type::Float.ptr_to());
        assert_eq!(f.params[1].ty, Type::Int);
    }

    #[test]
    fn array_param_is_pointer() {
        let u = parse_src("__global__ void k(float a[]) {}").unwrap();
        assert_eq!(first_func(&u).params[0].ty, Type::Float.ptr_to());
    }

    #[test]
    fn void_param_list() {
        let u = parse_src("int main(void) { return 0; }").unwrap();
        assert!(first_func(&u).params.is_empty());
    }

    #[test]
    fn builtin_member_parses() {
        let u = parse_src("__global__ void k() { int i = threadIdx.x; }").unwrap();
        let f = first_func(&u);
        match &f.body.stmts[0] {
            Stmt::Decl { init: Some(e), .. } => {
                assert_eq!(e.kind, ExprKind::Builtin(BuiltinVar::ThreadIdx, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_builtin_axis_rejected() {
        assert!(parse_src("__global__ void k() { int i = threadIdx.w; }").is_err());
    }

    #[test]
    fn launch_statement() {
        let u = parse_src("int main() { k<<<4, 256>>>(1, 2.0); return 0; }").unwrap();
        match &first_func(&u).body.stmts[0] {
            Stmt::Launch { kernel, args, .. } => {
                assert_eq!(kernel, "k");
                assert_eq!(args.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn launch_with_dim3() {
        let u = parse_src("int main() { k<<<dim3(2, 3), dim3(16, 16)>>>(); return 0; }").unwrap();
        match &first_func(&u).body.stmts[0] {
            Stmt::Launch { grid, block, .. } => {
                assert!(grid.y.is_some());
                assert!(block.y.is_some());
                assert!(grid.z.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn launch_with_dynamic_shared_arg() {
        // Third config arg accepted and ignored.
        assert!(parse_src("int main() { k<<<1, 32, 1024>>>(); return 0; }").is_ok());
    }

    #[test]
    fn shared_decl_2d() {
        let u = parse_src("__global__ void k() { __shared__ float t[16][17]; }").unwrap();
        match &first_func(&u).body.stmts[0] {
            Stmt::SharedDecl { dims, elem, .. } => {
                assert_eq!(dims.len(), 2);
                assert_eq!(*elem, Type::Float);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shared_scalar_rejected() {
        assert!(parse_src("__global__ void k() { __shared__ float x; }").is_err());
    }

    #[test]
    fn precedence_mul_before_add() {
        let u = parse_src("int main() { int x = 1 + 2 * 3; return 0; }").unwrap();
        match &first_func(&u).body.stmts[0] {
            Stmt::Decl { init: Some(e), .. } => match &e.kind {
                ExprKind::Binary(BinOp::Add, _, rhs) => {
                    assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shift_in_expression_not_launch() {
        let u = parse_src("int main() { int x = 8 >> 1 >> 1; return 0; }").unwrap();
        assert_eq!(u.items.len(), 1);
    }

    #[test]
    fn cast_parses() {
        let u = parse_src("int main() { float* p = (float*) malloc(8); return 0; }").unwrap();
        match &first_func(&u).body.stmts[0] {
            Stmt::Decl { init: Some(e), .. } => {
                assert!(matches!(e.kind, ExprKind::Cast(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parenthesized_expr_not_cast() {
        let u = parse_src("int main() { int x = (1 + 2) * 3; return 0; }").unwrap();
        assert_eq!(u.items.len(), 1);
    }

    #[test]
    fn compound_assignment() {
        let u = parse_src("int main() { int x = 0; x += 5; return 0; }").unwrap();
        match &first_func(&u).body.stmts[1] {
            Stmt::Assign {
                op: Some(BinOp::Add),
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn postfix_increment_desugars() {
        let u = parse_src("int main() { int i = 0; i++; return 0; }").unwrap();
        match &first_func(&u).body.stmts[1] {
            Stmt::Assign {
                op: Some(BinOp::Add),
                value,
                ..
            } => assert_eq!(value.kind, ExprKind::IntLit(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn for_loop_full_header() {
        let u = parse_src("int main() { for (int i = 0; i < 10; i++) { } return 0; }").unwrap();
        match &first_func(&u).body.stmts[0] {
            Stmt::For {
                init: Some(_),
                cond: Some(_),
                step: Some(_),
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn for_loop_empty_header() {
        assert!(parse_src("int main() { for (;;) { break; } return 0; }").is_ok());
    }

    #[test]
    fn if_else_without_braces() {
        let u = parse_src("int main() { if (1) return 1; else return 0; }").unwrap();
        match &first_func(&u).body.stmts[0] {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                assert_eq!(then_blk.stmts.len(), 1);
                assert!(else_blk.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_declarator_splits() {
        let u = parse_src("int main() { float *a, *b; return 0; }").unwrap();
        match &first_func(&u).body.stmts[0] {
            Stmt::Block(b) => {
                assert_eq!(b.stmts.len(), 2);
                for s in &b.stmts {
                    match s {
                        Stmt::Decl { ty, .. } => assert_eq!(*ty, Type::Float.ptr_to()),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn addr_of_parses() {
        let u = parse_src("int main() { int n; f(&n); return 0; }").unwrap();
        match &first_func(&u).body.stmts[1] {
            Stmt::Expr(e) => match &e.kind {
                ExprKind::Call(_, args) => {
                    assert!(matches!(args[0].kind, ExprKind::AddrOf(..)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sizeof_parses() {
        let u = parse_src("int main() { int s = sizeof(float); return 0; }").unwrap();
        match &first_func(&u).body.stmts[0] {
            Stmt::Decl { init: Some(e), .. } => {
                assert_eq!(e.kind, ExprKind::SizeOf(Type::Float));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn constant_item_parses() {
        let u = parse_src("__constant__ float mask[25];").unwrap();
        match &u.items[0] {
            Item::Constant(c) => {
                assert_eq!(c.name, "mask");
                assert_eq!(c.elem, Type::Float);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ternary_parses_right_assoc() {
        let u = parse_src("int main() { int x = 1 ? 2 : 3 ? 4 : 5; return 0; }").unwrap();
        assert_eq!(u.items.len(), 1);
    }

    #[test]
    fn acc_pragma_requires_for() {
        let err = parse_src("int main() {\n#pragma acc parallel loop\nint x = 0; return 0; }")
            .unwrap_err();
        assert!(err.message.contains("for loop"));
    }

    #[test]
    fn acc_pragma_wraps_for() {
        let src =
            "int main() {\n#pragma acc parallel loop\nfor (int i = 0; i < 4; i++) {}\nreturn 0; }";
        let u = parse_src(src).unwrap();
        assert!(matches!(
            first_func(&u).body.stmts[0],
            Stmt::AccParallelLoop { .. }
        ));
    }

    #[test]
    fn missing_semicolon_reports_position() {
        let err = parse_src("int main() {\n  int x = 1\n  return 0; }").unwrap_err();
        assert_eq!(err.phase, Phase::Parse);
        assert_eq!(err.pos.line, 3);
    }

    #[test]
    fn unclosed_block_reported() {
        let err = parse_src("int main() { return 0;").unwrap_err();
        assert!(err.message.contains("missing `}`"));
    }

    #[test]
    fn nested_index_chains() {
        let u = parse_src("__global__ void k(float* a) { a[threadIdx.x] = a[0]; }").unwrap();
        assert_eq!(u.items.len(), 1);
    }

    #[test]
    fn hostile_nesting_is_a_diagnostic_not_a_crash() {
        // 50k nested parens: must error cleanly, not overflow the stack.
        let deep = format!(
            "int main() {{ int x = {}1{}; return 0; }}",
            "(".repeat(50_000),
            ")".repeat(50_000)
        );
        let err = parse_src(&deep).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
        // Same for statement nesting.
        let deep_blocks = format!(
            "int main() {{ {} int x = 1; {} return 0; }}",
            "{".repeat(50_000),
            "}".repeat(50_000)
        );
        let err = parse_src(&deep_blocks).unwrap_err();
        assert!(err.message.contains("nest"), "{err}");
    }

    #[test]
    fn reasonable_nesting_still_parses() {
        let src = format!(
            "int main() {{ int x = {}1{}; return 0; }}",
            "(".repeat(48),
            ")".repeat(48)
        );
        assert!(parse_src(&src).is_ok());
    }

    #[test]
    fn double_maps_to_float() {
        let u = parse_src("int main() { double x = 1.5; return 0; }").unwrap();
        match &first_func(&u).body.stmts[0] {
            Stmt::Decl { ty, .. } => assert_eq!(*ty, Type::Float),
            other => panic!("unexpected {other:?}"),
        }
    }
}
