//! Recursive-descent parser for the surface language.
//!
//! The parser reads the token vector by reference and appends nodes to
//! the [`Unit`]'s arenas. Blocks and argument lists collect their
//! children's ids on a scratch stack and move them into one list arena
//! when they close.

use crate::ast::{
    sym, AllocAnnotation, ClassDecl, Expr, ExprId, ExprKind, FieldDecl, List, MethodDecl, Param,
    Stmt, StmtId, Symbol, TypeName, Unit,
};
use crate::error::{CompileError, Phase, Result, TextRange};
use crate::lexer::{int_value, tokenize, unescape, Keyword, Punct, Token, TokenKind};
use leakchecker_ir::stmt::BinOp;

/// How deep syntax may nest: blocks (an `else if` counts as one),
/// parenthesised and other sub-expressions (call arguments, indices,
/// array lengths), unary operators, and member accesses, calls and
/// indexing in one postfix chain all add a level. Parsing, lowering and
/// every analysis recurse over this nesting, so the budget bounds their
/// stack use; the parser refuses a deeper program with one syntax error
/// before it builds the deeper node. Left-associative operator chains
/// such as `1 + 1 + … + 1` are flat and do not count.
pub const MAX_NESTING: u32 = 256;

/// Parses a complete compilation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered, including
/// nesting beyond [`MAX_NESTING`].
pub fn parse(source: &str) -> Result<Unit<'_>> {
    let tokens = tokenize(source)?;
    let mut unit = Unit {
        source,
        ..Unit::default()
    };
    unit.exprs.reserve(tokens.len() / 3);
    unit.stmts.reserve(tokens.len() / 8);
    let mut parser = Parser {
        tokens: &tokens,
        pos: 0,
        depth: 0,
        unit,
        stmt_scratch: Vec::new(),
        expr_scratch: Vec::new(),
    };
    parser.classes()?;
    Ok(parser.unit)
}

struct Parser<'t, 's> {
    tokens: &'t [Token],
    pos: usize,
    /// Current nesting depth, bounded by [`MAX_NESTING`].
    depth: u32,
    unit: Unit<'s>,
    stmt_scratch: Vec<StmtId>,
    expr_scratch: Vec<ExprId>,
}

impl<'s> Parser<'_, 's> {
    fn peek(&self) -> Token {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek2(&self) -> Token {
        self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    fn range(&self) -> TextRange {
        self.peek().range()
    }

    fn text(&self, token: Token) -> &'s str {
        token.text(self.unit.source)
    }

    fn error(&self, message: impl Into<String>) -> CompileError {
        CompileError::at(Phase::Parse, self.unit.source, self.range(), message)
    }

    fn found(&self) -> String {
        self.peek().describe(self.unit.source)
    }

    fn at(&self, p: Punct) -> bool {
        self.peek().kind == TokenKind::Punct(p)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        let hit = self.at(p);
        if hit {
            self.bump();
        }
        hit
    }

    fn expect_punct(&mut self, p: Punct) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`, found {}", p.text(), self.found())))
        }
    }

    fn at_keyword(&self, kw: Keyword) -> bool {
        self.peek().kind == TokenKind::Keyword(kw)
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        let hit = self.at_keyword(kw);
        if hit {
            self.bump();
        }
        hit
    }

    fn expect_keyword(&mut self, kw: Keyword, text: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{text}`, found {}", self.found())))
        }
    }

    fn expect_ident(&mut self) -> Result<Symbol> {
        let token = self.peek();
        if token.kind != TokenKind::Ident {
            return Err(self.error(format!("expected identifier, found {}", self.found())));
        }
        self.bump();
        Ok(self.unit.names.intern(self.text(token)))
    }

    /// The annotation name of an `@` token at the cursor.
    fn annotation(&self) -> Option<&'s str> {
        let token = self.peek();
        (token.kind == TokenKind::At).then(|| &self.text(token)[1..])
    }

    /// Enters one nesting level, refusing to go past [`MAX_NESTING`].
    fn enter(&mut self) -> Result<()> {
        if self.depth >= MAX_NESTING {
            return Err(self.error(format!("program nests deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn expr_node(&mut self, kind: ExprKind, span: TextRange) -> ExprId {
        self.unit.push_expr(Expr { kind, span })
    }

    fn classes(&mut self) -> Result<()> {
        while self.peek().kind != TokenKind::Eof {
            self.class_decl()?;
        }
        Ok(())
    }

    fn class_decl(&mut self) -> Result<()> {
        let span = self.range();
        let is_library = self.eat_keyword(Keyword::Library);
        self.expect_keyword(Keyword::Class, "class")?;
        let name = self.expect_ident()?;
        let superclass = if self.eat_keyword(Keyword::Extends) {
            Some(self.expect_ident()?)
        } else {
            None
        };
        self.expect_punct(Punct::LBrace)?;
        let fields = self.unit.fields.len();
        let methods = self.unit.methods.len();
        while !self.eat_punct(Punct::RBrace) {
            if self.peek().kind == TokenKind::Eof {
                return Err(self.error("unexpected end of input inside class body"));
            }
            self.member(name)?;
        }
        self.unit.classes.push(ClassDecl {
            name,
            superclass,
            is_library,
            fields: fields..self.unit.fields.len(),
            methods: methods..self.unit.methods.len(),
            span,
        });
        Ok(())
    }

    fn member(&mut self, class_name: Symbol) -> Result<()> {
        let span = self.range();
        let mut is_region = false;
        while let Some(a) = self.annotation() {
            if a == "region" {
                is_region = true;
                self.bump();
            } else {
                return Err(self.error(format!("annotation `@{a}` is not valid on members")));
            }
        }
        let is_static = self.eat_keyword(Keyword::Static);

        // Constructor: `ClassName ( ... )`.
        let first = self.peek();
        if !is_static
            && first.kind == TokenKind::Ident
            && self.text(first) == self.unit.name(class_name)
            && self.peek2().kind == TokenKind::Punct(Punct::LParen)
        {
            self.bump();
            let params = self.params()?;
            let body = self.block()?;
            self.unit.methods.push(MethodDecl {
                name: sym::INIT,
                is_ctor: true,
                is_static: false,
                is_region,
                ret_ty: TypeName {
                    base: sym::VOID,
                    dims: 0,
                    span,
                },
                params,
                body,
                span,
            });
            return Ok(());
        }

        let ty = self.type_name()?;
        let name = self.expect_ident()?;
        if self.at(Punct::LParen) {
            let params = self.params()?;
            let body = self.block()?;
            self.unit.methods.push(MethodDecl {
                name,
                is_ctor: false,
                is_static,
                is_region,
                ret_ty: ty,
                params,
                body,
                span,
            });
        } else {
            if is_region {
                return Err(self.error("`@region` is only valid on methods"));
            }
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect_punct(Punct::Semi)?;
            self.unit.fields.push(FieldDecl {
                name,
                ty,
                is_static,
                init,
                span,
            });
        }
        Ok(())
    }

    fn params(&mut self) -> Result<std::ops::Range<usize>> {
        self.expect_punct(Punct::LParen)?;
        let start = self.unit.params.len();
        if !self.eat_punct(Punct::RParen) {
            loop {
                let ty = self.type_name()?;
                let name = self.expect_ident()?;
                self.unit.params.push(Param { name, ty });
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        Ok(start..self.unit.params.len())
    }

    fn type_name(&mut self) -> Result<TypeName> {
        let span = self.range();
        let token = self.peek();
        let base = match token.kind {
            TokenKind::Keyword(Keyword::Int) => sym::INT,
            TokenKind::Keyword(Keyword::Boolean) => sym::BOOLEAN,
            TokenKind::Keyword(Keyword::Void) => sym::VOID,
            TokenKind::Ident => self.unit.names.intern(self.text(token)),
            _ => return Err(self.error(format!("expected type name, found {}", self.found()))),
        };
        self.bump();
        let mut dims = 0;
        while self.at(Punct::LBracket) && self.peek2().kind == TokenKind::Punct(Punct::RBracket) {
            self.bump();
            self.bump();
            dims += 1;
        }
        Ok(TypeName { base, dims, span })
    }

    fn block(&mut self) -> Result<List> {
        if !self.at(Punct::LBrace) {
            return Err(self.error(format!("expected `{{`, found {}", self.found())));
        }
        self.enter()?;
        self.bump();
        let mark = self.stmt_scratch.len();
        while !self.eat_punct(Punct::RBrace) {
            if self.peek().kind == TokenKind::Eof {
                return Err(self.error("unexpected end of input inside block"));
            }
            let stmt = self.stmt()?;
            self.stmt_scratch.push(stmt);
        }
        self.leave();
        Ok(self.unit.seal_block(&mut self.stmt_scratch, mark))
    }

    fn stmt(&mut self) -> Result<StmtId> {
        let span = self.range();

        // `@check while (...)` — designated loop. Allocation annotations
        // are handled inside expressions.
        if self.annotation() == Some("check") {
            self.bump();
            self.expect_keyword(Keyword::While, "while")?;
            return self.while_stmt(true);
        }

        let token = self.peek();
        let stmt = match token.kind {
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let then_branch = self.block()?;
                let else_branch = if self.eat_keyword(Keyword::Else) {
                    if self.at_keyword(Keyword::If) {
                        self.enter()?;
                        let nested = self.stmt()?;
                        self.leave();
                        let mark = self.stmt_scratch.len();
                        self.stmt_scratch.push(nested);
                        self.unit.seal_block(&mut self.stmt_scratch, mark)
                    } else {
                        self.block()?
                    }
                } else {
                    List::default()
                };
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                }
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                return self.while_stmt(false);
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.eat_punct(Punct::Semi) {
                    None
                } else {
                    let e = self.expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Some(e)
                };
                Stmt::Return(value, span)
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Stmt::Break
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Stmt::Continue
            }
            // Variable declaration: `Type name ...` — distinguish from an
            // assignment/expression by lookahead: ident ident, or
            // ident[] ident. The base type is a class name or one of the
            // primitive type keywords.
            TokenKind::Ident
            | TokenKind::Keyword(Keyword::Int)
            | TokenKind::Keyword(Keyword::Boolean)
                if self.peek2().kind == TokenKind::Ident || self.looks_like_array_decl() =>
            {
                let ty = self.type_name()?;
                let name = self.expect_ident()?;
                let init = if self.eat_punct(Punct::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect_punct(Punct::Semi)?;
                Stmt::VarDecl {
                    ty,
                    name,
                    init,
                    span,
                }
            }
            _ => {
                let target = self.expr()?;
                if self.eat_punct(Punct::Assign) {
                    let value = self.expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Stmt::Assign {
                        target,
                        value,
                        span,
                    }
                } else {
                    self.expect_punct(Punct::Semi)?;
                    Stmt::Expr(target)
                }
            }
        };
        Ok(self.unit.push_stmt(stmt))
    }

    /// True for `Ident [ ] Ident`, the start of an array-typed declaration.
    fn looks_like_array_decl(&self) -> bool {
        self.peek2().kind == TokenKind::Punct(Punct::LBracket)
            && self
                .tokens
                .get(self.pos + 2)
                .is_some_and(|t| t.kind == TokenKind::Punct(Punct::RBracket))
    }

    fn while_stmt(&mut self, checked: bool) -> Result<StmtId> {
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let body = self.block()?;
        Ok(self.unit.push_stmt(Stmt::While {
            cond,
            body,
            checked,
        }))
    }

    fn expr(&mut self) -> Result<ExprId> {
        self.enter()?;
        let e = self.or_expr()?;
        self.leave();
        Ok(e)
    }

    /// One left-associative precedence level: `next (op next)*`, where
    /// `op_of` maps the operator tokens of this level. Chains are built
    /// in a loop, so their length costs no stack.
    fn left_chain(
        &mut self,
        next: fn(&mut Self) -> Result<ExprId>,
        op_of: fn(Punct) -> Option<BinOp>,
    ) -> Result<ExprId> {
        let mut lhs = next(self)?;
        while let TokenKind::Punct(p) = self.peek().kind {
            let Some(op) = op_of(p) else { break };
            let span = self.range();
            self.bump();
            let rhs = next(self)?;
            lhs = self.expr_node(ExprKind::Binary { op, lhs, rhs }, span);
        }
        Ok(lhs)
    }

    fn or_expr(&mut self) -> Result<ExprId> {
        self.left_chain(Self::and_expr, |p| (p == Punct::OrOr).then_some(BinOp::Or))
    }

    fn and_expr(&mut self) -> Result<ExprId> {
        self.left_chain(Self::cmp_expr, |p| {
            (p == Punct::AndAnd).then_some(BinOp::And)
        })
    }

    fn cmp_expr(&mut self) -> Result<ExprId> {
        let lhs = self.add_expr()?;
        let op = match self.peek().kind {
            TokenKind::Punct(Punct::EqEq) => BinOp::Eq,
            TokenKind::Punct(Punct::NotEq) => BinOp::Ne,
            TokenKind::Punct(Punct::Lt) => BinOp::Lt,
            TokenKind::Punct(Punct::Le) => BinOp::Le,
            TokenKind::Punct(Punct::Gt) => BinOp::Gt,
            TokenKind::Punct(Punct::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        let span = self.range();
        self.bump();
        let rhs = self.add_expr()?;
        Ok(self.expr_node(ExprKind::Binary { op, lhs, rhs }, span))
    }

    fn add_expr(&mut self) -> Result<ExprId> {
        self.left_chain(Self::mul_expr, |p| match p {
            Punct::Plus => Some(BinOp::Add),
            Punct::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> Result<ExprId> {
        self.left_chain(Self::unary_expr, |p| match p {
            Punct::Star => Some(BinOp::Mul),
            Punct::Slash => Some(BinOp::Div),
            Punct::Percent => Some(BinOp::Rem),
            _ => None,
        })
    }

    fn unary_expr(&mut self) -> Result<ExprId> {
        let span = self.range();
        let negate = match self.peek().kind {
            TokenKind::Punct(Punct::Bang) => false,
            TokenKind::Punct(Punct::Minus) => true,
            _ => return self.postfix_expr(),
        };
        self.enter()?;
        self.bump();
        let e = self.unary_expr()?;
        self.leave();
        let kind = if negate {
            ExprKind::Neg(e)
        } else {
            ExprKind::Not(e)
        };
        Ok(self.expr_node(kind, span))
    }

    fn postfix_expr(&mut self) -> Result<ExprId> {
        let mut e = self.primary_expr()?;
        let outer = self.depth;
        loop {
            let span = self.range();
            if self.at(Punct::Dot) {
                self.enter()?;
                self.bump();
                let name = self.expect_ident()?;
                let kind = if self.at(Punct::LParen) {
                    let args = self.args()?;
                    ExprKind::Call {
                        base: Some(e),
                        name,
                        args,
                    }
                } else {
                    ExprKind::Field { base: e, name }
                };
                e = self.expr_node(kind, span);
            } else if self.at(Punct::LBracket)
                && self.peek2().kind != TokenKind::Punct(Punct::RBracket)
            {
                self.enter()?;
                self.bump();
                let index = self.expr()?;
                self.expect_punct(Punct::RBracket)?;
                e = self.expr_node(ExprKind::Index { base: e, index }, span);
            } else {
                break;
            }
        }
        self.depth = outer;
        Ok(e)
    }

    fn args(&mut self) -> Result<List> {
        self.expect_punct(Punct::LParen)?;
        let mark = self.expr_scratch.len();
        if !self.eat_punct(Punct::RParen) {
            loop {
                let arg = self.expr()?;
                self.expr_scratch.push(arg);
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        Ok(self.unit.seal_args(&mut self.expr_scratch, mark))
    }

    fn alloc_annotation(&mut self) -> Result<Option<AllocAnnotation>> {
        let Some(a) = self.annotation() else {
            return Ok(None);
        };
        match a {
            "leak" => {
                self.bump();
                Ok(Some(AllocAnnotation::Leak))
            }
            "fp" => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let token = self.peek();
                if token.kind != TokenKind::Str {
                    return Err(self.error(format!(
                        "expected string in `@fp(..)`, found {}",
                        self.found()
                    )));
                }
                self.bump();
                let reason = unescape(self.text(token));
                self.expect_punct(Punct::RParen)?;
                self.unit.strings.push(reason);
                Ok(Some(AllocAnnotation::FalsePositive(
                    self.unit.strings.len() as u32 - 1,
                )))
            }
            other => Err(self.error(format!(
                "annotation `@{other}` is not valid in expression position"
            ))),
        }
    }

    fn primary_expr(&mut self) -> Result<ExprId> {
        let span = self.range();
        if let Some(annotation) = self.alloc_annotation()? {
            // Annotation must be followed by `new`.
            self.expect_keyword(Keyword::New, "new")?;
            return self.new_expr(Some(annotation), span);
        }
        let token = self.peek();
        let kind = match token.kind {
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                return Ok(e);
            }
            TokenKind::Int => ExprKind::Int(int_value(self.text(token))),
            TokenKind::Keyword(Keyword::Null) => ExprKind::Null,
            TokenKind::Keyword(Keyword::This) => ExprKind::This,
            TokenKind::Keyword(Keyword::True) => ExprKind::Bool(true),
            TokenKind::Keyword(Keyword::False) => ExprKind::Bool(false),
            TokenKind::Keyword(Keyword::New) => {
                self.bump();
                return self.new_expr(None, span);
            }
            TokenKind::Keyword(Keyword::Nondet) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                self.expect_punct(Punct::RParen)?;
                return Ok(self.expr_node(ExprKind::NonDet, span));
            }
            TokenKind::Keyword(_) => {
                return Err(self.error(format!(
                    "unexpected keyword `{}` in expression",
                    self.text(token)
                )))
            }
            TokenKind::Ident => {
                self.bump();
                let name = self.unit.names.intern(self.text(token));
                let kind = if self.at(Punct::LParen) {
                    let args = self.args()?;
                    ExprKind::Call {
                        base: None,
                        name,
                        args,
                    }
                } else {
                    ExprKind::Name(name)
                };
                return Ok(self.expr_node(kind, span));
            }
            _ => return Err(self.error(format!("unexpected {} in expression", self.found()))),
        };
        self.bump();
        Ok(self.expr_node(kind, span))
    }

    fn new_expr(&mut self, annotation: Option<AllocAnnotation>, span: TextRange) -> Result<ExprId> {
        let ty = self.type_name()?;
        let kind = if self.at(Punct::LBracket) {
            self.bump();
            let len = self.expr()?;
            self.expect_punct(Punct::RBracket)?;
            ExprKind::NewArray {
                elem: ty,
                len,
                annotation,
            }
        } else if ty.dims > 0 {
            return Err(self.error("array allocation requires a length: `new T[n]`"));
        } else {
            let args = self.args()?;
            ExprKind::New {
                class: ty.base,
                args,
                annotation,
            }
        };
        Ok(self.expr_node(kind, span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body<'u>(unit: &'u Unit<'_>, method: usize) -> Vec<&'u Stmt> {
        let m = &unit.methods[method];
        unit.block(m.body).iter().map(|&s| unit.stmt(s)).collect()
    }

    #[test]
    fn parses_class_with_fields_and_methods() {
        let unit = parse(
            "class Order { int id; }
             class Transaction {
               Order curr;
               static int count;
               void process(Order p) { this.curr = p; }
             }",
        )
        .unwrap();
        assert_eq!(unit.classes.len(), 2);
        let tx = &unit.classes[1];
        let fields = unit.fields_of(tx);
        assert_eq!(fields.len(), 2);
        assert!(fields[1].is_static);
        let methods = unit.methods_of(tx);
        assert_eq!(methods.len(), 1);
        assert_eq!(unit.params_of(&methods[0]).len(), 1);
    }

    #[test]
    fn parses_constructor() {
        let unit = parse("class C { int x; C(int v) { this.x = v; } }").unwrap();
        let m = &unit.methods[0];
        assert!(m.is_ctor);
        assert_eq!(unit.name(m.name), "<init>");
    }

    #[test]
    fn parses_checked_loop_and_annotations() {
        let unit = parse(
            "class Main {
               static void main() {
                 int i;
                 i = 0;
                 @check while (i < 10) {
                   Main m = @leak new Main();
                   i = i + 1;
                 }
               }
             }",
        )
        .unwrap();
        let Stmt::While { checked, body, .. } = body(&unit, 0)[2] else {
            panic!("expected while");
        };
        assert!(checked);
        let Stmt::VarDecl { init: Some(e), .. } = unit.stmt(unit.block(*body)[0]) else {
            panic!("expected var decl");
        };
        let ExprKind::New { annotation, .. } = unit.expr(*e).kind else {
            panic!("expected new");
        };
        assert_eq!(annotation, Some(AllocAnnotation::Leak));
    }

    #[test]
    fn parses_fp_annotation() {
        let unit =
            parse("class C { static void m() { C x = @fp(\"singleton\") new C(); } }").unwrap();
        let Stmt::VarDecl { init: Some(e), .. } = body(&unit, 0)[0] else {
            panic!()
        };
        let ExprKind::New {
            annotation: Some(AllocAnnotation::FalsePositive(reason)),
            ..
        } = unit.expr(*e).kind
        else {
            panic!()
        };
        assert_eq!(unit.strings[reason as usize], "singleton");
    }

    #[test]
    fn parses_arrays() {
        let unit = parse(
            "class C {
               C[] items;
               void m(int n) {
                 C[] a = new C[n];
                 a[0] = new C();
                 C x = a[n - 1];
                 this.items = a;
               }
             }",
        )
        .unwrap();
        let stmts = body(&unit, 0);
        assert_eq!(stmts.len(), 4);
        let Stmt::Assign { target, .. } = stmts[1] else {
            panic!()
        };
        assert!(matches!(unit.expr(*target).kind, ExprKind::Index { .. }));
    }

    #[test]
    fn parses_operator_precedence() {
        let unit = parse("class C { static void m() { int x = 1 + 2 * 3; } }").unwrap();
        let Stmt::VarDecl { init: Some(e), .. } = body(&unit, 0)[0] else {
            panic!()
        };
        let ExprKind::Binary { op, rhs, .. } = unit.expr(*e).kind else {
            panic!()
        };
        assert_eq!(op, BinOp::Add);
        assert!(matches!(
            unit.expr(rhs).kind,
            ExprKind::Binary { op: BinOp::Mul, .. }
        ));
    }

    #[test]
    fn parses_if_else_chain_and_calls() {
        let unit = parse(
            "class C {
               int f() { return 1; }
               void m(C other) {
                 if (nondet()) { other.f(); }
                 else if (this.f() == 1) { f(); }
                 else { }
               }
             }",
        )
        .unwrap();
        let Stmt::If { else_branch, .. } = body(&unit, 1)[0] else {
            panic!()
        };
        let nested = unit.block(*else_branch);
        assert_eq!(nested.len(), 1);
        assert!(matches!(unit.stmt(nested[0]), Stmt::If { .. }));
    }

    #[test]
    fn parses_region_annotation() {
        let unit = parse("class P { @region void run() { } }").unwrap();
        assert!(unit.methods[0].is_region);
    }

    #[test]
    fn parses_library_class() {
        let unit = parse("library class HashMap { }").unwrap();
        assert!(unit.classes[0].is_library);
    }

    #[test]
    fn rejects_missing_semicolon() {
        let err = parse("class C { void m() { int x = 1 } }").unwrap_err();
        assert!(err.message.contains("`;`"), "{err}");
    }

    #[test]
    fn rejects_bad_annotation_position() {
        assert!(parse("class C { void m() { @check int x; } }").is_err());
    }

    #[test]
    fn rejects_unclosed_class() {
        assert!(parse("class C { void m() { }").is_err());
    }

    #[test]
    fn field_initializers_parse() {
        let unit = parse("class C { C next = null; int n = 3; }").unwrap();
        assert!(unit.fields[0].init.is_some());
        assert!(unit.fields[1].init.is_some());
    }

    #[test]
    fn parses_logical_operators() {
        let unit = parse("class C { static void m(int a) { if (a < 1 && a > -5 || a == 3) { } } }")
            .unwrap();
        let Stmt::If { cond, .. } = body(&unit, 0)[0] else {
            panic!()
        };
        assert!(matches!(
            unit.expr(*cond).kind,
            ExprKind::Binary { op: BinOp::Or, .. }
        ));
    }

    /// `depth` levels of one nesting form around `x`, inside a method.
    fn nested(open: &str, close: &str, depth: usize) -> String {
        format!(
            "class C {{ void m(int x) {{ {}x = 1;{} }} }}",
            open.repeat(depth),
            close.repeat(depth)
        )
    }

    #[test]
    fn nesting_budget_admits_its_last_level_and_refuses_the_next() {
        // The method body is one block, the statement's expression one
        // more level.
        let blocks = |d| nested("if (nondet()) { ", "} ", d);
        assert!(parse(&blocks(MAX_NESTING as usize - 2)).is_ok());
        let err = parse(&blocks(MAX_NESTING as usize - 1)).unwrap_err();
        assert_eq!(err.phase, Phase::Parse);
        assert!(err.message.contains("nests deeper than"), "{err}");

        let parens = |d: usize| {
            format!(
                "class C {{ void m() {{ int x = {}1{}; }} }}",
                "(".repeat(d),
                ")".repeat(d)
            )
        };
        assert!(parse(&parens(MAX_NESTING as usize - 2)).is_ok());
        assert!(parse(&parens(MAX_NESTING as usize - 1)).is_err());

        let unary = |d: usize| format!("class C {{ void m() {{ int x = {}1; }} }}", "-".repeat(d));
        assert!(parse(&unary(MAX_NESTING as usize - 2)).is_ok());
        assert!(parse(&unary(MAX_NESTING as usize - 1)).is_err());
    }

    #[test]
    fn hostile_nesting_is_refused_without_recursing_to_the_end() {
        for source in [
            format!(
                "class C {{ void m() {{ int x = {}1{}; }} }}",
                "(".repeat(100_000),
                ")".repeat(100_000)
            ),
            format!(
                "class C {{ void m() {{ int x = {}1; }} }}",
                "!-".repeat(50_000)
            ),
            nested("while (nondet()) { ", "} ", 100_000),
            nested("if (nondet()) { } else ", "", 100_000),
            format!(
                "class C {{ void m() {{ f({}1{}); }} }}",
                "f(".repeat(100_000),
                ")".repeat(100_000)
            ),
            format!(
                "class C {{ void m() {{ int x = a{}; }} }}",
                ".b".repeat(100_000)
            ),
        ] {
            let err = parse(&source).unwrap_err();
            assert!(err.message.contains("nests deeper than"), "{err}");
        }
    }

    #[test]
    fn flat_operator_chains_are_not_nesting() {
        let sum = format!(
            "class C {{ void m() {{ int x = 1{}; }} }}",
            " + 1".repeat(100_000)
        );
        let unit = parse(&sum).unwrap();
        assert_eq!(unit.exprs.len(), 200_001);
    }
}
