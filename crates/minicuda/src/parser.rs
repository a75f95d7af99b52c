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
use crate::fx::FxHashMap;
use crate::token::{unescape, Tok, Token};

/// Parse a token stream into a translation unit. Each function owns
/// its nodes in two arenas, allocated at their exact size; every name
/// is interned once into the unit's [`Names`].
pub fn parse(tokens: Vec<Token<'_>>) -> Result<Unit, Diag> {
    let mut p = Parser {
        tokens,
        at: 0,
        depth: 0,
        names: Names::default(),
        interned: FxHashMap::with_capacity_and_hasher(64, Default::default()),
        exprs: Vec::with_capacity(256),
        stmts: Vec::with_capacity(64),
        far: Vec::new(),
        // The lab solutions hold at most 38 statements in open blocks
        // and 8 call arguments at once (bfs), so neither stack grows.
        open_stmts: Vec::with_capacity(48),
        open_exprs: Vec::with_capacity(16),
    };
    let mut items = Vec::new();
    while !p.check_eof() {
        items.push(p.item()?);
    }
    p.names.shrink_to_fit();
    Ok(Unit {
        items,
        names: p.names,
    })
}

/// Maximum expression/statement nesting depth. The parser is recursive
/// descent; without a cap, a hostile submission of 100k nested parens
/// would overflow the worker's stack instead of producing a diagnostic.
/// 64 comfortably exceeds C's own minimum translation limit (63 levels
/// of parenthesized expressions, C11 §5.2.4.1) while keeping the
/// recursion shallow enough for a 2 MB thread stack in debug builds.
const MAX_NESTING: usize = 64;

/// The parse functions return a node by value; its parent moves it into
/// the arena when the parent is built, so siblings (a block's
/// statements, a call's arguments) land next to each other and every
/// node is stored once.
struct Parser<'src> {
    tokens: Vec<Token<'src>>,
    at: usize,
    depth: usize,
    names: Names,
    interned: FxHashMap<&'src str, Sym>,
    /// The arenas of the item being parsed; each item copies them out
    /// at their exact size.
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    far: Vec<Pos>,
    /// The statements of every block still being parsed, innermost
    /// last: a block moves its own off the top into the arena.
    open_stmts: Vec<Stmt>,
    /// The same for the arguments of every call still being parsed.
    open_exprs: Vec<Expr>,
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

    /// [`Parser::eat_ident`], interned.
    fn eat_name(&mut self) -> Result<Sym, Diag> {
        let name = self.eat_ident()?;
        Ok(self.intern(name))
    }

    fn intern(&mut self, name: &'src str) -> Sym {
        match self.interned.get(name) {
            Some(&sym) => sym,
            None => {
                let sym = self.names.push(name);
                self.interned.insert(name, sym);
                sym
            }
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

    // ---- arenas --------------------------------------------------------

    /// An expression node at `pos`.
    fn node(&mut self, kind: ExprKind, pos: Pos) -> Expr {
        Expr {
            kind,
            at: Loc::pack(pos, &mut self.far),
        }
    }

    fn int(&mut self, v: i64, pos: Pos) -> Expr {
        self.node(ExprKind::IntLit(Lit::new(v)), pos)
    }

    fn push_expr(&mut self, e: Expr) -> ExprId {
        self.exprs.push(e);
        ExprId::new(self.exprs.len() - 1)
    }

    fn push_stmt(&mut self, s: Stmt) -> StmtId {
        self.stmts.push(s);
        StmtId::new(self.stmts.len() - 1)
    }

    /// Move the open expressions from `base` on into the arena, in
    /// order.
    fn close_exprs(&mut self, base: usize) -> ExprList {
        let first = ExprId::new(self.exprs.len());
        let len = (self.open_exprs.len() - base) as u32;
        self.exprs.extend(self.open_exprs.drain(base..));
        ExprList { first, len }
    }

    /// Move the open statements from `base` on into the arena, in
    /// order.
    fn close_stmts(&mut self, base: usize) -> Block {
        let first = StmtId::new(self.stmts.len());
        let len = (self.open_stmts.len() - base) as u32;
        self.stmts.extend(self.open_stmts.drain(base..));
        Block { first, len }
    }

    // ---- top level ----------------------------------------------------

    fn item(&mut self) -> Result<Item, Diag> {
        let pos = self.pos();
        if self.eat_word("__constant__") {
            let elem = self.base_type()?;
            let name = self.eat_name()?;
            self.eat(Tok::LBracket)?;
            let size = self.expr()?;
            let size = self.push_expr(size);
            self.eat(Tok::RBracket)?;
            self.eat(Tok::Semi)?;
            return Ok(Item::Constant(ConstantDef {
                elem,
                name,
                size,
                exprs: self.exprs.drain(..).collect(),
                far: self.far.drain(..).collect(),
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
        let name = self.eat_name()?;
        self.eat(Tok::LParen)?;
        let params = self.params()?;
        self.eat(Tok::RParen)?;
        let body = self.block()?;
        // Programs keep their AST, and the cache keeps programs: each
        // arena is copied out at its exact size.
        Ok(Item::Func(FuncDef {
            kind,
            ret,
            name,
            params,
            body,
            pos,
            frame: Vec::new(),
            exprs: self.exprs.drain(..).collect(),
            stmts: self.stmts.drain(..).collect(),
            far: self.far.drain(..).collect(),
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
            let name = self.eat_name()?;
            // `float a[]` parameter form: same as a pointer.
            let ty = if *self.peek() == Tok::LBracket {
                self.advance();
                self.eat(Tok::RBracket)?;
                ty.ptr_to()
            } else {
                ty
            };
            params.push(Param { ty, name });
            if *self.peek() == Tok::Comma {
                self.advance();
            } else {
                break;
            }
        }
        params.shrink_to_fit();
        Ok(params)
    }

    // ---- types ---------------------------------------------------------

    fn base_type(&mut self) -> Result<Type, Diag> {
        self.eat_word("const");
        let t = if self.eat_word("void") {
            Type::VOID
        } else if self.eat_word("int") || self.eat_word("long") || self.eat_word("size_t") {
            Type::INT
        } else if self.eat_word("unsigned") {
            self.eat_word("int"); // `unsigned int` or bare `unsigned`
            Type::INT
        } else if self.eat_word("float") || self.eat_word("double") {
            // Labs occasionally write `double` for host accumulators; the
            // device is single-precision, so both map to f32.
            Type::FLOAT
        } else if self.eat_word("bool") {
            Type::BOOL
        } else {
            return Err(self.err(format!("expected a type, found {}", self.peek().describe())));
        };
        Ok(t)
    }

    fn typ(&mut self) -> Result<Type, Diag> {
        let t = self.base_type()?;
        self.stars(t, true)
    }

    /// `ty` under the `*`s that follow (each may carry `const` when
    /// `consts`), at most [`MAX_POINTER_DEPTH`] levels deep.
    fn stars(&mut self, mut ty: Type, consts: bool) -> Result<Type, Diag> {
        let mut depth = 0;
        while *self.peek() == Tok::Star {
            depth += 1;
            if depth > MAX_POINTER_DEPTH {
                return Err(self.err(format!(
                    "pointer types nest deeper than {MAX_POINTER_DEPTH} levels"
                )));
            }
            self.advance();
            if consts {
                self.eat_word("const");
            }
            ty = ty.ptr_to();
        }
        Ok(ty)
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
        let base = self.open_stmts.len();
        while *self.peek() != Tok::RBrace {
            if self.check_eof() {
                return Err(self.err("unexpected end of input inside a block (missing `}`?)"));
            }
            let s = self.stmt()?;
            self.open_stmts.push(s);
        }
        self.eat(Tok::RBrace)?;
        Ok(self.close_stmts(base))
    }

    /// A statement, wrapping single statements after `if`/loops in blocks.
    fn body_block(&mut self) -> Result<Block, Diag> {
        if *self.peek() == Tok::LBrace {
            self.block()
        } else {
            let s = self.stmt()?;
            Ok(Block {
                first: self.push_stmt(s),
                len: 1,
            })
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
                    body: self.push_stmt(inner),
                    pos,
                })
            }
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::Semi => {
                self.advance();
                let base = self.open_stmts.len();
                Ok(Stmt::Block(self.close_stmts(base)))
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
                        Some(self.expr_id()?)
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
            _ => return Ok(Stmt::Expr(self.push_expr(e))),
        };
        self.advance();
        let target = self.push_expr(e);
        let value = self.expr_id()?;
        Ok(Stmt::Assign {
            target,
            op,
            value,
            pos,
        })
    }

    fn make_incdec(&mut self, target: Expr, inc: bool, pos: Pos) -> Stmt {
        Stmt::Assign {
            target: self.push_expr(target),
            op: Some(if inc { BinOp::Add } else { BinOp::Sub }),
            value: {
                let one = self.int(1, pos);
                self.push_expr(one)
            },
            pos,
        }
    }

    fn decl(&mut self) -> Result<Stmt, Diag> {
        let pos = self.pos();
        let base_ty = self.base_type()?;
        let first = self.declarator(base_ty, pos)?;
        if *self.peek() != Tok::Comma {
            return Ok(first);
        }
        let base = self.open_stmts.len();
        self.open_stmts.push(first);
        while *self.peek() == Tok::Comma {
            self.advance();
            let next = self.declarator(base_ty, pos)?;
            self.open_stmts.push(next);
        }
        Ok(Stmt::Block(self.close_stmts(base)))
    }

    /// One `*name = init` of a declaration whose base type is `base`.
    fn declarator(&mut self, base: Type, pos: Pos) -> Result<Stmt, Diag> {
        let ty = self.stars(base, false)?;
        let name = self.eat_name()?;
        let init = if *self.peek() == Tok::Eq {
            self.advance();
            Some(self.expr_id()?)
        } else {
            None
        };
        Ok(Stmt::Decl {
            ty,
            name,
            init,
            pos,
            slot: UNBOUND,
        })
    }

    fn shared_decl(&mut self) -> Result<Stmt, Diag> {
        let pos = self.pos();
        self.advance(); // __shared__
        let elem = self.base_type()?;
        let name = self.eat_name()?;
        let base = self.open_exprs.len();
        while *self.peek() == Tok::LBracket {
            if self.open_exprs.len() - base == MAX_POINTER_DEPTH {
                return Err(self.err(format!(
                    "__shared__ arrays have at most {MAX_POINTER_DEPTH} dimensions"
                )));
            }
            self.advance();
            let dim = self.expr()?;
            self.open_exprs.push(dim);
            self.eat(Tok::RBracket)?;
        }
        if self.open_exprs.len() == base {
            return Err(Diag::new(
                Phase::Parse,
                pos,
                "__shared__ declarations must be arrays (e.g. __shared__ float tile[32];)",
            ));
        }
        self.eat(Tok::Semi)?;
        Ok(Stmt::SharedDecl {
            elem,
            name,
            dims: self.close_exprs(base),
            pos,
            slot: UNBOUND,
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt, Diag> {
        let pos = self.pos();
        self.advance(); // if
        self.eat(Tok::LParen)?;
        let cond = self.expr_id()?;
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
        let cond = self.expr_id()?;
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
            let s = self.simple_stmt()?;
            Some(self.push_stmt(s))
        };
        self.eat(Tok::Semi)?;
        let cond = if *self.peek() == Tok::Semi {
            None
        } else {
            Some(self.expr_id()?)
        };
        self.eat(Tok::Semi)?;
        let step = if *self.peek() == Tok::RParen {
            None
        } else {
            let s = self.simple_stmt()?;
            Some(self.push_stmt(s))
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
        let kernel = self.eat_name()?;
        self.eat(Tok::LaunchOpen)?;
        let base = self.open_exprs.len();
        let grid = self.dim3()?;
        self.eat(Tok::Comma)?;
        let block = self.dim3()?;
        // Optional third config argument (dynamic shared memory size):
        // parsed and ignored — labs use static `__shared__` arrays. Its
        // nodes are the arena's newest, so they are dropped with it.
        if *self.peek() == Tok::Comma {
            self.advance();
            let mark = self.exprs.len();
            let _ = self.expr()?;
            self.exprs.truncate(mark);
        }
        self.eat(Tok::LaunchClose)?;
        self.open_args()?;
        let all = self.close_exprs(base);
        Ok(Stmt::Launch {
            kernel,
            operands: LaunchOperands { all, grid, block },
            pos,
        })
    }

    /// A parenthesized argument list, collected like a block's
    /// statements.
    fn args(&mut self) -> Result<ExprList, Diag> {
        let base = self.open_exprs.len();
        self.open_args()?;
        Ok(self.close_exprs(base))
    }

    /// Parse a parenthesized argument list onto the open expressions.
    fn open_args(&mut self) -> Result<(), Diag> {
        self.eat(Tok::LParen)?;
        if *self.peek() != Tok::RParen {
            loop {
                let arg = self.expr()?;
                self.open_exprs.push(arg);
                if *self.peek() == Tok::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.eat(Tok::RParen)?;
        Ok(())
    }

    /// A grid or block extent triple, `n` or `dim3(x[, y[, z]])`, onto
    /// the open expressions; returns how many extents it gave.
    fn dim3(&mut self) -> Result<u8, Diag> {
        let extent = |p: &mut Self| -> Result<(), Diag> {
            let e = p.expr()?;
            p.open_exprs.push(e);
            Ok(())
        };
        if !self.is_word("dim3") {
            extent(self)?;
            return Ok(1);
        }
        self.advance();
        self.eat(Tok::LParen)?;
        extent(self)?;
        let mut given = 1;
        while given < 3 && *self.peek() == Tok::Comma {
            self.advance();
            extent(self)?;
            given += 1;
        }
        self.eat(Tok::RParen)?;
        Ok(given)
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr, Diag> {
        self.ternary()
    }

    /// An expression moved into the arena.
    fn expr_id(&mut self) -> Result<ExprId, Diag> {
        let e = self.expr()?;
        Ok(self.push_expr(e))
    }

    fn ternary(&mut self) -> Result<Expr, Diag> {
        let cond = self.binary(0)?;
        if *self.peek() == Tok::Question {
            let pos = self.pos();
            self.advance();
            let a = self.expr()?;
            self.eat(Tok::Colon)?;
            let b = self.ternary()?;
            // The arms land next to each other.
            let cond = self.push_expr(cond);
            let a = self.push_expr(a);
            self.push_expr(b);
            Ok(self.node(ExprKind::Ternary(cond, a), pos))
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
            let kind = ExprKind::Binary(op, self.push_expr(lhs), self.push_expr(rhs));
            lhs = self.node(kind, pos);
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
        let op = match self.peek() {
            Tok::Minus => Some(UnOp::Neg),
            Tok::Bang => Some(UnOp::Not),
            Tok::Tilde => Some(UnOp::BitNot),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let e = self.unary()?;
            let kind = ExprKind::Unary(op, self.push_expr(e));
            return Ok(self.node(kind, pos));
        }
        match self.peek() {
            Tok::Amp => {
                self.advance();
                let name = self.eat_name()?;
                if *self.peek() == Tok::LBracket {
                    // `&arr[i]` is plain pointer arithmetic: `arr + i`
                    // (chained for `&t[i][j]` on shared arrays).
                    let var = self.node(ExprKind::Var(name), pos);
                    let e = self.postfix(var)?;
                    if let ExprKind::Index(base, idx) = e.kind {
                        return Ok(self.node(ExprKind::Binary(BinOp::Add, base, idx), pos));
                    }
                    unreachable!("postfix after `[` yields an index");
                }
                Ok(self.node(ExprKind::AddrOf(name, UNBOUND), pos))
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
                        let kind = ExprKind::Cast(ty, self.push_expr(e));
                        return Ok(self.node(kind, pos));
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
            let kind = ExprKind::Index(self.push_expr(e), self.push_expr(idx));
            e = self.node(kind, pos);
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, Diag> {
        let pos = self.pos();
        match self.advance() {
            Tok::Int(v) => Ok(self.int(v, pos)),
            Tok::Float(v) => Ok(self.node(ExprKind::FloatLit(v), pos)),
            Tok::Str(raw) => {
                // Interned by its escaped spelling: an identifier has no
                // escapes, so a name and a literal that share a key share
                // their text too.
                let text = match self.interned.get(raw) {
                    Some(&sym) => sym,
                    None => {
                        let sym = self.names.push_with(|text| unescape(raw, text));
                        self.interned.insert(raw, sym);
                        sym
                    }
                };
                Ok(self.node(ExprKind::StrLit(text), pos))
            }
            Tok::Ident(name) => {
                match name {
                    "true" => return Ok(self.int(1, pos)),
                    "false" => return Ok(self.int(0, pos)),
                    "sizeof" => {
                        self.eat(Tok::LParen)?;
                        let ty = self.typ()?;
                        self.eat(Tok::RParen)?;
                        return Ok(self.node(ExprKind::SizeOf(ty), pos));
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
                    return Ok(self.node(ExprKind::Builtin(builtin, axis), pos));
                }
                if is_keyword(name) {
                    return Err(Diag::new(
                        Phase::Parse,
                        pos,
                        format!("unexpected keyword `{name}` in expression"),
                    ));
                }
                let sym = self.intern(name);
                if *self.peek() == Tok::LParen {
                    let args = self.args()?;
                    let len = u16::try_from(args.len).map_err(|_| {
                        Diag::new(
                            Phase::Parse,
                            pos,
                            format!("`{name}` is called with more than {} arguments", u16::MAX),
                        )
                    })?;
                    let call = ExprKind::Call {
                        callee: sym,
                        first: args.first,
                        len,
                    };
                    return Ok(self.node(call, pos));
                }
                Ok(self.node(ExprKind::Var(sym), pos))
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

    /// The first function's top-level statements.
    fn body(unit: &Unit) -> &[Stmt] {
        let f = first_func(unit);
        f.block(f.body)
    }

    /// The first function's expression `id`.
    fn kind(unit: &Unit, id: ExprId) -> ExprKind {
        first_func(unit).expr(id).kind
    }

    #[test]
    fn parse_empty_main() {
        let u = parse_src("int main() { return 0; }").unwrap();
        let f = first_func(&u);
        assert_eq!(u.names.name(f.name), "main");
        assert_eq!(f.kind, FuncKind::Host);
        assert_eq!(f.ret, Type::INT);
    }

    #[test]
    fn parse_kernel_with_params() {
        let u = parse_src("__global__ void k(float* a, int n) {}").unwrap();
        let f = first_func(&u);
        assert_eq!(f.kind, FuncKind::Kernel);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].ty, Type::FLOAT.ptr_to());
        assert_eq!(f.params[1].ty, Type::INT);
    }

    #[test]
    fn array_param_is_pointer() {
        let u = parse_src("__global__ void k(float a[]) {}").unwrap();
        assert_eq!(first_func(&u).params[0].ty, Type::FLOAT.ptr_to());
    }

    #[test]
    fn void_param_list() {
        let u = parse_src("int main(void) { return 0; }").unwrap();
        assert!(first_func(&u).params.is_empty());
    }

    /// Each name is stored once, however often it is spelled.
    #[test]
    fn names_are_interned_once() {
        let u = parse_src("int main() { int x = 1; x = x + x; return x; }").unwrap();
        let x = u.names.find("x").expect("interned");
        assert_eq!(u.names.len(), 2, "main and x");
        let f = first_func(&u);
        let uses = f
            .exprs
            .iter()
            .filter(|e| matches!(e.kind, ExprKind::Var(s) if s == x))
            .count();
        assert_eq!(uses, 4);
    }

    /// Every node is stored once: each expression and statement but the
    /// body's own is some other node's child, and no id dangles.
    #[test]
    fn every_node_is_one_nodes_child() {
        let u = parse_src(
            "int main() { int a = 1, b = 2; float* p = &q[a][b]; \
             for (int i = 0; i < (a ? b : 3); i++) { f(i, -a, (float) b); } \
             if (a) g(); else { k<<<dim3(1, 2), 3>>>(a); } return sizeof(int); }",
        )
        .unwrap();
        let f = first_func(&u);
        let mut exprs = vec![0; f.exprs.len()];
        let mut stmts = vec![0; f.stmts.len()];
        let seen = |ids: &mut Vec<u32>, i: usize| ids[i] += 1;
        for e in &f.exprs {
            match e.kind {
                ExprKind::Unary(_, a) | ExprKind::Cast(_, a) => seen(&mut exprs, a.index()),
                ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => {
                    [a, b].iter().for_each(|x| seen(&mut exprs, x.index()))
                }
                ExprKind::Ternary(c, a) => [c, a, a.next()]
                    .iter()
                    .for_each(|x| seen(&mut exprs, x.index())),
                ExprKind::Call { first, len, .. } => ExprKind::args(first, len)
                    .ids()
                    .for_each(|x| seen(&mut exprs, x.index())),
                _ => {}
            }
        }
        for s in &f.stmts {
            let mut e = |x: Option<ExprId>| x.iter().for_each(|x| seen(&mut exprs, x.index()));
            match *s {
                Stmt::Decl { init, .. } => e(init),
                Stmt::Assign { target, value, .. } => {
                    [target, value].map(Some).into_iter().for_each(e)
                }
                Stmt::Expr(x) | Stmt::While { cond: x, .. } | Stmt::If { cond: x, .. } => {
                    e(Some(x))
                }
                Stmt::Return { value, .. } => e(value),
                Stmt::For { cond, .. } => e(cond),
                Stmt::Launch { operands, .. } => operands.all.ids().for_each(|x| e(Some(x))),
                _ => {}
            }
            let blocks = match *s {
                Stmt::If {
                    then_blk, else_blk, ..
                } => vec![Some(then_blk), else_blk],
                Stmt::While { body, .. } | Stmt::For { body, .. } => vec![Some(body)],
                Stmt::Block(b) => vec![Some(b)],
                _ => vec![],
            };
            for b in blocks.into_iter().flatten() {
                b.ids().for_each(|x| seen(&mut stmts, x.index()));
            }
            if let Stmt::For { init, step, .. } = *s {
                init.iter()
                    .chain(&step)
                    .for_each(|x| seen(&mut stmts, x.index()));
            }
        }
        f.body.ids().for_each(|x| seen(&mut stmts, x.index()));
        assert!(exprs.iter().all(|&n| n == 1), "{exprs:?}");
        assert!(stmts.iter().all(|&n| n == 1), "{stmts:?}");
    }

    #[test]
    fn builtin_member_parses() {
        let u = parse_src("__global__ void k() { int i = threadIdx.x; }").unwrap();
        match body(&u)[0] {
            Stmt::Decl { init: Some(e), .. } => {
                assert_eq!(kind(&u, e), ExprKind::Builtin(BuiltinVar::ThreadIdx, 0));
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
        match body(&u)[0] {
            Stmt::Launch {
                kernel, operands, ..
            } => {
                assert_eq!(u.names.name(kernel), "k");
                assert_eq!(operands.args().len, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn launch_with_dim3() {
        let u = parse_src("int main() { k<<<dim3(2, 3), dim3(16, 16)>>>(); return 0; }").unwrap();
        match body(&u)[0] {
            Stmt::Launch { operands, .. } => {
                assert_eq!(operands.grid().len, 2);
                assert_eq!(operands.block().len, 2);
                assert_eq!(operands.args().len, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn launch_with_dynamic_shared_arg() {
        // Third config arg accepted and ignored, its nodes dropped.
        let u = parse_src("int main() { k<<<1, 32, 4 * (8 + 2)>>>(); return 0; }").unwrap();
        assert_eq!(first_func(&u).exprs.len(), 3, "1, 32 and the returned 0");
    }

    #[test]
    fn pointer_depth_is_bounded() {
        let src = |n: usize| format!("int main() {{ float{} p; return 0; }}", "*".repeat(n));
        assert!(parse_src(&src(MAX_POINTER_DEPTH)).is_ok());
        let err = parse_src(&src(MAX_POINTER_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
        let dims = "[1]".repeat(MAX_POINTER_DEPTH + 1);
        let err = parse_src(&format!(
            "__global__ void k() {{ __shared__ float t{dims}; }}"
        ))
        .unwrap_err();
        assert!(err.message.contains("at most"), "{err}");
    }

    #[test]
    fn shared_decl_2d() {
        let u = parse_src("__global__ void k() { __shared__ float t[16][17]; }").unwrap();
        match body(&u)[0] {
            Stmt::SharedDecl { dims, elem, .. } => {
                assert_eq!(dims.len, 2);
                assert_eq!(elem, Type::FLOAT);
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
        match body(&u)[0] {
            Stmt::Decl { init: Some(e), .. } => match kind(&u, e) {
                ExprKind::Binary(BinOp::Add, _, rhs) => {
                    assert!(matches!(kind(&u, rhs), ExprKind::Binary(BinOp::Mul, _, _)));
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
        match body(&u)[0] {
            Stmt::Decl { init: Some(e), .. } => {
                assert!(matches!(kind(&u, e), ExprKind::Cast(_, _)));
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
        match body(&u)[1] {
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
        match body(&u)[1] {
            Stmt::Assign {
                op: Some(BinOp::Add),
                value,
                ..
            } => assert_eq!(kind(&u, value), ExprKind::IntLit(Lit::new(1))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn for_loop_full_header() {
        let u = parse_src("int main() { for (int i = 0; i < 10; i++) { } return 0; }").unwrap();
        match body(&u)[0] {
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
        match body(&u)[0] {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                assert_eq!(then_blk.len, 1);
                assert!(else_blk.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_declarator_splits() {
        let u = parse_src("int main() { float *a, *b; return 0; }").unwrap();
        match body(&u)[0] {
            Stmt::Block(b) => {
                assert_eq!(b.len, 2);
                for s in first_func(&u).block(b) {
                    match s {
                        Stmt::Decl { ty, .. } => assert_eq!(*ty, Type::FLOAT.ptr_to()),
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
        match body(&u)[1] {
            Stmt::Expr(e) => match kind(&u, e) {
                ExprKind::Call { first, .. } => {
                    let arg = first_func(&u).expr(first);
                    assert!(matches!(arg.kind, ExprKind::AddrOf(..)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sizeof_parses() {
        let u = parse_src("int main() { int s = sizeof(float); return 0; }").unwrap();
        match body(&u)[0] {
            Stmt::Decl { init: Some(e), .. } => {
                assert_eq!(kind(&u, e), ExprKind::SizeOf(Type::FLOAT));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn constant_item_parses() {
        let u = parse_src("__constant__ float mask[25];").unwrap();
        match &u.items[0] {
            Item::Constant(c) => {
                assert_eq!(u.names.name(c.name), "mask");
                assert_eq!(c.elem, Type::FLOAT);
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
        assert!(matches!(body(&u)[0], Stmt::AccParallelLoop { .. }));
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
        match body(&u)[0] {
            Stmt::Decl { ty, .. } => assert_eq!(ty, Type::FLOAT),
            other => panic!("unexpected {other:?}"),
        }
    }
}
