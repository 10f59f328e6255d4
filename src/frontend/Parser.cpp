//===- frontend/Parser.cpp ------------------------------------------------===//

#include "frontend/Parser.h"

#include <cassert>

using namespace rpcc;

namespace {

/// Nesting bound. Sema, Lowering and the AST destructors all recurse over
/// what the parser builds, so one bound here keeps every later walk within
/// the stack: a level is one recursive production entered (statement,
/// assignment, conditional, unary, parenthesised or cast expression) or one
/// operator folded into a binary or postfix chain (a left-deep chain is as
/// deep as it is long).
constexpr unsigned kMaxDepth = 1000;

class Parser {
public:
  Parser(std::vector<Token> Toks, std::vector<Diag> &Diags)
      : Toks(std::move(Toks)), Diags(Diags) {
    P.Types = std::make_unique<TypeContext>();
  }

  Program run() {
    while (!at(Tok::Eof)) {
      size_t Before = Pos;
      parseTopLevel();
      if (Pos == Before) {
        // Ensure forward progress on malformed input.
        error("unexpected " + std::string(tokName(cur().Kind)));
        ++Pos;
      }
    }
    return std::move(P);
  }

private:
  // -- Token plumbing ------------------------------------------------------
  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t Off = 1) const {
    return Toks[std::min(Pos + Off, Toks.size() - 1)];
  }
  bool at(Tok K) const { return cur().Kind == K; }
  bool accept(Tok K) {
    if (!at(K))
      return false;
    ++Pos;
    return true;
  }
  Token expect(Tok K, const char *Ctx) {
    if (at(K))
      return Toks[Pos++];
    error(std::string("expected ") + tokName(K) + " " + Ctx + ", found " +
          tokName(cur().Kind));
    return cur();
  }
  void error(const std::string &Msg) {
    if (!TooDeep)
      Diags.push_back({cur().Line, cur().Col, Msg});
  }

  // -- Nesting bound ----------------------------------------------------------
  /// Enters one nesting level. Past kMaxDepth it reports a single
  /// diagnostic and skips to the end of input, so nothing descends further
  /// and every enclosing production unwinds at once (their own errors are
  /// muted). The caller leaves the level by decrementing Depth.
  bool enter() {
    if (++Depth <= kMaxDepth)
      return true;
    error("nesting too deep (more than " + std::to_string(kMaxDepth) +
          " levels)");
    TooDeep = true;
    Pos = Toks.size() - 1; // the Eof token
    return false;
  }

  /// One nesting level for the guard's lifetime; false past kMaxDepth.
  class Nest {
  public:
    explicit Nest(Parser &P) : P(P), Ok(P.enter()) {}
    ~Nest() { --P.Depth; }
    explicit operator bool() const { return Ok; }

  private:
    Parser &P;
    bool Ok;
  };

  /// Skips tokens until a likely statement/declaration boundary.
  void synchronize() {
    while (!at(Tok::Eof) && !at(Tok::Semi) && !at(Tok::RBrace))
      ++Pos;
    accept(Tok::Semi);
  }

  // -- Types and declarators ----------------------------------------------
  bool atTypeStart() const {
    switch (cur().Kind) {
    case Tok::KwInt:
    case Tok::KwChar:
    case Tok::KwFloat:
    case Tok::KwVoid:
    case Tok::KwStruct:
    case Tok::KwConst:
      return true;
    default:
      return false;
    }
  }

  /// Parses "const? basetype *...". Returns null on error.
  const Type *parseDeclSpec(bool &IsConst) {
    IsConst = accept(Tok::KwConst);
    const Type *T = nullptr;
    switch (cur().Kind) {
    case Tok::KwInt: ++Pos; T = P.Types->intTy(); break;
    case Tok::KwChar: ++Pos; T = P.Types->charTy(); break;
    case Tok::KwFloat: ++Pos; T = P.Types->floatTy(); break;
    case Tok::KwVoid: ++Pos; T = P.Types->voidTy(); break;
    case Tok::KwStruct: {
      ++Pos;
      Token Name = expect(Tok::Ident, "after 'struct'");
      StructDecl *S = P.Types->findStruct(Name.Text);
      if (!S) {
        error("unknown struct '" + Name.Text + "'");
        S = P.Types->createStruct(Name.Text);
      }
      T = P.Types->structTy(S);
      break;
    }
    default:
      error("expected a type");
      return nullptr;
    }
    if (!IsConst)
      IsConst = accept(Tok::KwConst); // allow "int const"
    while (accept(Tok::Star))
      T = P.Types->pointerTo(T);
    return T;
  }

  /// Parses one declarator given the distributed base type. Emits the
  /// declared name into \p Name and returns the full type, or null on error.
  /// Handles "*... name [dims]" and the function-pointer forms
  /// "(*name)(params)" / "(*name[N])(params)".
  const Type *parseDeclarator(const Type *Base, std::string &Name) {
    while (accept(Tok::Star))
      Base = P.Types->pointerTo(Base);

    if (accept(Tok::LParen)) {
      // Function-pointer declarator.
      expect(Tok::Star, "in function-pointer declarator");
      Token N = expect(Tok::Ident, "in function-pointer declarator");
      Name = N.Text;
      std::vector<uint32_t> Dims;
      while (accept(Tok::LBracket)) {
        Token Sz = expect(Tok::IntLit, "as array size");
        expect(Tok::RBracket, "after array size");
        Dims.push_back(static_cast<uint32_t>(Sz.IntVal));
      }
      expect(Tok::RParen, "in function-pointer declarator");
      expect(Tok::LParen, "before function-pointer parameter list");
      std::vector<const Type *> Params;
      if (!at(Tok::RParen)) {
        do {
          bool PC = false;
          const Type *PT = parseDeclSpec(PC);
          if (!PT)
            return nullptr;
          // Allow (and ignore) a parameter name inside the prototype.
          if (at(Tok::Ident))
            ++Pos;
          Params.push_back(PT);
        } while (accept(Tok::Comma));
      }
      expect(Tok::RParen, "after function-pointer parameter list");
      const Type *T =
          P.Types->pointerTo(P.Types->funcTy(Base, std::move(Params)));
      for (auto It = Dims.rbegin(); It != Dims.rend(); ++It)
        T = P.Types->arrayOf(T, *It);
      return T;
    }

    Token N = expect(Tok::Ident, "in declarator");
    Name = N.Text;
    // Array dimensions, outermost first in source order.
    std::vector<uint32_t> Dims;
    while (accept(Tok::LBracket)) {
      Token Sz = expect(Tok::IntLit, "as array size");
      expect(Tok::RBracket, "after array size");
      Dims.push_back(static_cast<uint32_t>(Sz.IntVal));
    }
    const Type *T = Base;
    for (auto It = Dims.rbegin(); It != Dims.rend(); ++It)
      T = P.Types->arrayOf(T, *It);
    return T;
  }

  // -- Top level -----------------------------------------------------------
  void parseTopLevel() {
    if (at(Tok::KwStruct) && peek().Kind == Tok::Ident &&
        peek(2).Kind == Tok::LBrace) {
      parseStructDecl();
      return;
    }
    if (!atTypeStart()) {
      error("expected a declaration");
      synchronize();
      return;
    }
    bool IsConst = false;
    const Type *Base = parseDeclSpec(IsConst);
    if (!Base) {
      synchronize();
      return;
    }
    // Function definition: "name (".
    if (at(Tok::Ident) && peek().Kind == Tok::LParen) {
      parseFunction(Base);
      return;
    }
    parseGlobalVars(Base, IsConst);
  }

  void parseStructDecl() {
    expect(Tok::KwStruct, "");
    Token Name = expect(Tok::Ident, "as struct name");
    StructDecl *S = P.Types->findStruct(Name.Text);
    if (S && S->Complete)
      error("redefinition of struct '" + Name.Text + "'");
    if (!S)
      S = P.Types->createStruct(Name.Text);
    expect(Tok::LBrace, "to open struct body");
    while (!at(Tok::RBrace) && !at(Tok::Eof)) {
      bool FC = false;
      const Type *Base = parseDeclSpec(FC);
      if (!Base) {
        synchronize();
        continue;
      }
      do {
        std::string FName;
        const Type *FT = parseDeclarator(Base, FName);
        if (!FT)
          break;
        if (FT->isStruct() && !FT->structDecl()->Complete)
          error("field of incomplete struct type");
        S->Fields.push_back(StructField{FName, FT, 0});
      } while (accept(Tok::Comma));
      expect(Tok::Semi, "after struct field");
    }
    expect(Tok::RBrace, "to close struct body");
    expect(Tok::Semi, "after struct declaration");
    S->finalize();
  }

  void parseFunction(const Type *RetTy) {
    auto FD = std::make_unique<FuncDecl>();
    Token Name = expect(Tok::Ident, "as function name");
    FD->Name = Name.Text;
    FD->RetTy = RetTy;
    FD->Line = Name.Line;
    FD->Col = Name.Col;
    expect(Tok::LParen, "to open parameter list");
    std::vector<const Type *> ParamTys;
    if (!at(Tok::RParen) && !at(Tok::KwVoid)) {
      do {
        bool PC = false;
        const Type *Base = parseDeclSpec(PC);
        if (!Base)
          break;
        std::string PName;
        const Type *PT = parseDeclarator(Base, PName);
        if (!PT)
          break;
        // Array parameters decay to pointers, as in C.
        if (PT->isArray())
          PT = P.Types->pointerTo(PT->element());
        auto Sym = std::make_unique<Symbol>();
        Sym->K = Symbol::Kind::Param;
        Sym->Name = PName;
        Sym->Ty = PT;
        Sym->IsConst = PC;
        FD->Params.push_back(std::move(Sym));
        ParamTys.push_back(PT);
      } while (accept(Tok::Comma));
    } else {
      accept(Tok::KwVoid);
    }
    expect(Tok::RParen, "to close parameter list");

    auto FSym = std::make_unique<Symbol>();
    FSym->K = Symbol::Kind::Func;
    FSym->Name = FD->Name;
    FSym->Ty = P.Types->funcTy(RetTy, std::move(ParamTys));
    FSym->FD = FD.get();
    FD->Sym = std::move(FSym);

    Token Open = cur();
    expect(Tok::LBrace, "to open function body");
    FD->Body = parseBlock(Open.Line, Open.Col);
    P.Funcs.push_back(std::move(FD));
  }

  void parseGlobalVars(const Type *Base, bool IsConst) {
    do {
      auto GV = std::make_unique<GlobalVarDecl>();
      GV->Line = cur().Line;
      GV->Col = cur().Col;
      std::string Name;
      const Type *T = parseDeclarator(Base, Name);
      if (!T) {
        synchronize();
        return;
      }
      auto Sym = std::make_unique<Symbol>();
      Sym->K = Symbol::Kind::GlobalVar;
      Sym->Name = Name;
      Sym->Ty = T;
      Sym->IsConst = IsConst;
      GV->Sym = std::move(Sym);
      if (accept(Tok::Assign)) {
        if (accept(Tok::LBrace)) {
          if (!at(Tok::RBrace)) {
            do
              GV->InitList.push_back(parseAssignment());
            while (accept(Tok::Comma) && !at(Tok::RBrace));
          }
          expect(Tok::RBrace, "to close initializer list");
        } else {
          GV->Init = parseAssignment();
        }
      }
      P.Globals.push_back(std::move(GV));
    } while (accept(Tok::Comma));
    expect(Tok::Semi, "after global declaration");
  }

  // -- Statements -----------------------------------------------------------
  std::unique_ptr<BlockStmt> parseBlock(unsigned L, unsigned C) {
    auto B = std::make_unique<BlockStmt>(L, C);
    while (!at(Tok::RBrace) && !at(Tok::Eof)) {
      size_t Before = Pos;
      B->Stmts.push_back(parseStmt());
      if (Pos == Before) {
        error("unexpected " + std::string(tokName(cur().Kind)));
        ++Pos;
      }
    }
    expect(Tok::RBrace, "to close block");
    return B;
  }

  StmtPtr parseStmt() {
    unsigned L = cur().Line, C = cur().Col;
    Nest N(*this);
    if (!N)
      return std::make_unique<EmptyStmt>(L, C);
    switch (cur().Kind) {
    case Tok::LBrace:
      ++Pos;
      return parseBlock(L, C);
    case Tok::Semi:
      ++Pos;
      return std::make_unique<EmptyStmt>(L, C);
    case Tok::KwIf: {
      ++Pos;
      expect(Tok::LParen, "after 'if'");
      ExprPtr Cond = parseExpr();
      expect(Tok::RParen, "after if condition");
      StmtPtr Then = parseStmt();
      StmtPtr Else;
      if (accept(Tok::KwElse))
        Else = parseStmt();
      return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                      std::move(Else), L, C);
    }
    case Tok::KwWhile: {
      ++Pos;
      expect(Tok::LParen, "after 'while'");
      ExprPtr Cond = parseExpr();
      expect(Tok::RParen, "after while condition");
      StmtPtr Body = parseStmt();
      return std::make_unique<WhileStmt>(std::move(Cond), std::move(Body), L,
                                         C);
    }
    case Tok::KwDo: {
      ++Pos;
      StmtPtr Body = parseStmt();
      expect(Tok::KwWhile, "after do-body");
      expect(Tok::LParen, "after 'while'");
      ExprPtr Cond = parseExpr();
      expect(Tok::RParen, "after do-while condition");
      expect(Tok::Semi, "after do-while");
      return std::make_unique<DoWhileStmt>(std::move(Body), std::move(Cond),
                                           L, C);
    }
    case Tok::KwFor: {
      ++Pos;
      auto F = std::make_unique<ForStmt>(L, C);
      expect(Tok::LParen, "after 'for'");
      if (!at(Tok::Semi))
        F->Init = parseExpr();
      expect(Tok::Semi, "after for-init");
      if (!at(Tok::Semi))
        F->Cond = parseExpr();
      expect(Tok::Semi, "after for-condition");
      if (!at(Tok::RParen))
        F->Step = parseExpr();
      expect(Tok::RParen, "after for-step");
      F->Body = parseStmt();
      return F;
    }
    case Tok::KwReturn: {
      ++Pos;
      ExprPtr V;
      if (!at(Tok::Semi))
        V = parseExpr();
      expect(Tok::Semi, "after return");
      return std::make_unique<ReturnStmt>(std::move(V), L, C);
    }
    case Tok::KwBreak:
      ++Pos;
      expect(Tok::Semi, "after 'break'");
      return std::make_unique<BreakStmt>(L, C);
    case Tok::KwContinue:
      ++Pos;
      expect(Tok::Semi, "after 'continue'");
      return std::make_unique<ContinueStmt>(L, C);
    default:
      break;
    }

    if (atTypeStart())
      return parseDeclStmt();

    ExprPtr E = parseExpr();
    expect(Tok::Semi, "after expression statement");
    return std::make_unique<ExprStmt>(std::move(E), L, C);
  }

  /// Local declarations; comma lists become nested blocks of DeclStmts
  /// flattened into one Block statement.
  StmtPtr parseDeclStmt() {
    unsigned L = cur().Line, C = cur().Col;
    bool IsConst = false;
    const Type *Base = parseDeclSpec(IsConst);
    if (!Base) {
      synchronize();
      return std::make_unique<EmptyStmt>(L, C);
    }
    auto Block = std::make_unique<BlockStmt>(L, C);
    do {
      auto D = std::make_unique<DeclStmt>(cur().Line, cur().Col);
      std::string Name;
      const Type *T = parseDeclarator(Base, Name);
      if (!T) {
        synchronize();
        return std::make_unique<EmptyStmt>(L, C);
      }
      auto Sym = std::make_unique<Symbol>();
      Sym->K = Symbol::Kind::LocalVar;
      Sym->Name = Name;
      Sym->Ty = T;
      Sym->IsConst = IsConst;
      D->Sym = std::move(Sym);
      if (accept(Tok::Assign))
        D->Init = parseAssignment();
      Block->Stmts.push_back(std::move(D));
    } while (accept(Tok::Comma));
    expect(Tok::Semi, "after declaration");
    if (Block->Stmts.size() == 1)
      return std::move(Block->Stmts.front());
    return Block;
  }

  // -- Expressions (precedence climbing) ------------------------------------
  ExprPtr parseExpr() { return parseAssignment(); }

  ExprPtr parseAssignment() {
    Nest N(*this);
    if (!N)
      return std::make_unique<IntLitExpr>(0, cur().Line, cur().Col);
    ExprPtr L0 = parseConditional();
    unsigned L = cur().Line, C = cur().Col;
    switch (cur().Kind) {
    case Tok::Assign:
      ++Pos;
      return std::make_unique<AssignExpr>(std::move(L0), parseAssignment(),
                                          false, BinOp::Add, L, C);
    case Tok::PlusAssign:
      ++Pos;
      return std::make_unique<AssignExpr>(std::move(L0), parseAssignment(),
                                          true, BinOp::Add, L, C);
    case Tok::MinusAssign:
      ++Pos;
      return std::make_unique<AssignExpr>(std::move(L0), parseAssignment(),
                                          true, BinOp::Sub, L, C);
    case Tok::StarAssign:
      ++Pos;
      return std::make_unique<AssignExpr>(std::move(L0), parseAssignment(),
                                          true, BinOp::Mul, L, C);
    case Tok::SlashAssign:
      ++Pos;
      return std::make_unique<AssignExpr>(std::move(L0), parseAssignment(),
                                          true, BinOp::Div, L, C);
    case Tok::PercentAssign:
      ++Pos;
      return std::make_unique<AssignExpr>(std::move(L0), parseAssignment(),
                                          true, BinOp::Rem, L, C);
    default:
      return L0;
    }
  }

  ExprPtr parseConditional() {
    Nest N(*this);
    if (!N)
      return std::make_unique<IntLitExpr>(0, cur().Line, cur().Col);
    ExprPtr Cond = parseBinary(0);
    if (!at(Tok::Question))
      return Cond;
    unsigned L = cur().Line, C = cur().Col;
    ++Pos;
    ExprPtr Then = parseAssignment();
    expect(Tok::Colon, "in conditional expression");
    ExprPtr Else = parseConditional();
    return std::make_unique<CondExpr>(std::move(Cond), std::move(Then),
                                      std::move(Else), L, C);
  }

  /// Binary operator table by precedence level (0 = lowest).
  static bool binOpFor(Tok K, int Level, BinOp &Op) {
    struct Row {
      Tok T;
      int Level;
      BinOp Op;
    };
    static const Row Rows[] = {
        {Tok::PipePipe, 0, BinOp::LogOr},  {Tok::AmpAmp, 1, BinOp::LogAnd},
        {Tok::Pipe, 2, BinOp::Or},         {Tok::Caret, 3, BinOp::Xor},
        {Tok::Amp, 4, BinOp::And},         {Tok::EqEq, 5, BinOp::Eq},
        {Tok::Ne, 5, BinOp::Ne},           {Tok::Lt, 6, BinOp::Lt},
        {Tok::Le, 6, BinOp::Le},           {Tok::Gt, 6, BinOp::Gt},
        {Tok::Ge, 6, BinOp::Ge},           {Tok::Shl, 7, BinOp::Shl},
        {Tok::Shr, 7, BinOp::Shr},         {Tok::Plus, 8, BinOp::Add},
        {Tok::Minus, 8, BinOp::Sub},       {Tok::Star, 9, BinOp::Mul},
        {Tok::Slash, 9, BinOp::Div},       {Tok::Percent, 9, BinOp::Rem},
    };
    for (const Row &R : Rows)
      if (R.T == K && R.Level == Level) {
        Op = R.Op;
        return true;
      }
    return false;
  }

  ExprPtr parseBinary(int Level) {
    if (Level > 9)
      return parseUnary();
    ExprPtr L0 = parseBinary(Level + 1);
    BinOp Op;
    const unsigned Base = Depth;
    while (binOpFor(cur().Kind, Level, Op) && enter()) {
      unsigned L = cur().Line, C = cur().Col;
      ++Pos;
      ExprPtr R0 = parseBinary(Level + 1);
      L0 = std::make_unique<BinaryExpr>(Op, std::move(L0), std::move(R0), L,
                                        C);
    }
    Depth = Base;
    return L0;
  }

  ExprPtr parseUnary() {
    unsigned L = cur().Line, C = cur().Col;
    Nest N(*this);
    if (!N)
      return std::make_unique<IntLitExpr>(0, L, C);
    switch (cur().Kind) {
    case Tok::Minus:
      ++Pos;
      return std::make_unique<UnaryExpr>(UnOp::Neg, parseUnary(), L, C);
    case Tok::Bang:
      ++Pos;
      return std::make_unique<UnaryExpr>(UnOp::LogNot, parseUnary(), L, C);
    case Tok::Tilde:
      ++Pos;
      return std::make_unique<UnaryExpr>(UnOp::BitNot, parseUnary(), L, C);
    case Tok::Star:
      ++Pos;
      return std::make_unique<UnaryExpr>(UnOp::Deref, parseUnary(), L, C);
    case Tok::Amp:
      ++Pos;
      return std::make_unique<UnaryExpr>(UnOp::AddrOf, parseUnary(), L, C);
    case Tok::PlusPlus:
      ++Pos;
      return std::make_unique<UnaryExpr>(UnOp::PreInc, parseUnary(), L, C);
    case Tok::MinusMinus:
      ++Pos;
      return std::make_unique<UnaryExpr>(UnOp::PreDec, parseUnary(), L, C);
    case Tok::KwSizeof: {
      ++Pos;
      expect(Tok::LParen, "after 'sizeof'");
      ExprPtr Out;
      if (atTypeStart()) {
        bool SC = false;
        const Type *T = parseDeclSpec(SC);
        Out = std::make_unique<SizeofTypeExpr>(T, L, C);
      } else {
        // sizeof(expr): fold to sizeof of its type during Sema; represent
        // via SizeofType after Sema by reusing the expression's type. Keep
        // the subexpression so Sema can compute the type.
        ExprPtr Sub = parseExpr();
        auto SE = std::make_unique<SizeofTypeExpr>(nullptr, L, C);
        // Sema needs the subexpression; stash it in a unary wrapper.
        Out = std::make_unique<UnaryExpr>(UnOp::Neg, std::move(Sub), L, C);
        error("sizeof(expression) is not supported; use sizeof(type)");
      }
      expect(Tok::RParen, "after sizeof");
      return Out;
    }
    case Tok::LParen:
      // Cast or parenthesized expression.
      if (isTypeStartAt(Pos + 1)) {
        Nest NC(*this);
        if (!NC)
          return std::make_unique<IntLitExpr>(0, L, C);
        ++Pos;
        bool SC = false;
        const Type *T = parseDeclSpec(SC);
        expect(Tok::RParen, "after cast type");
        return std::make_unique<CastExpr>(T, parseUnary(), L, C);
      }
      break;
    default:
      break;
    }
    return parsePostfix();
  }

  bool isTypeStartAt(size_t Idx) const {
    switch (Toks[std::min(Idx, Toks.size() - 1)].Kind) {
    case Tok::KwInt:
    case Tok::KwChar:
    case Tok::KwFloat:
    case Tok::KwVoid:
    case Tok::KwStruct:
    case Tok::KwConst:
      return true;
    default:
      return false;
    }
  }

  ExprPtr parsePostfix() {
    ExprPtr E = parsePrimary();
    const unsigned Base = Depth;
    for (;;) {
      unsigned L = cur().Line, C = cur().Col;
      if (!atPostfixOp() || !enter()) {
        Depth = Base;
        return E;
      }
      if (accept(Tok::LBracket)) {
        ExprPtr I = parseExpr();
        expect(Tok::RBracket, "after array index");
        E = std::make_unique<IndexExpr>(std::move(E), std::move(I), L, C);
        continue;
      }
      if (accept(Tok::LParen)) {
        std::vector<ExprPtr> Args;
        if (!at(Tok::RParen)) {
          do
            Args.push_back(parseAssignment());
          while (accept(Tok::Comma));
        }
        expect(Tok::RParen, "after call arguments");
        E = std::make_unique<CallExpr>(std::move(E), std::move(Args), L, C);
        continue;
      }
      if (accept(Tok::Dot)) {
        Token F = expect(Tok::Ident, "as field name");
        E = std::make_unique<MemberExpr>(std::move(E), F.Text, false, L, C);
        continue;
      }
      if (accept(Tok::Arrow)) {
        Token F = expect(Tok::Ident, "as field name");
        E = std::make_unique<MemberExpr>(std::move(E), F.Text, true, L, C);
        continue;
      }
      if (at(Tok::PlusPlus)) {
        ++Pos;
        E = std::make_unique<UnaryExpr>(UnOp::PostInc, std::move(E), L, C);
        continue;
      }
      ++Pos; // MinusMinus
      E = std::make_unique<UnaryExpr>(UnOp::PostDec, std::move(E), L, C);
    }
  }

  bool atPostfixOp() const {
    switch (cur().Kind) {
    case Tok::LBracket:
    case Tok::LParen:
    case Tok::Dot:
    case Tok::Arrow:
    case Tok::PlusPlus:
    case Tok::MinusMinus:
      return true;
    default:
      return false;
    }
  }

  ExprPtr parsePrimary() {
    unsigned L = cur().Line, C = cur().Col;
    switch (cur().Kind) {
    case Tok::IntLit: {
      int64_t V = cur().IntVal;
      ++Pos;
      return std::make_unique<IntLitExpr>(V, L, C);
    }
    case Tok::FloatLit: {
      double V = cur().FloatVal;
      ++Pos;
      return std::make_unique<FloatLitExpr>(V, L, C);
    }
    case Tok::StrLit: {
      std::string V = cur().Text;
      ++Pos;
      return std::make_unique<StrLitExpr>(std::move(V), L, C);
    }
    case Tok::Ident: {
      std::string N = cur().Text;
      ++Pos;
      return std::make_unique<VarRefExpr>(std::move(N), L, C);
    }
    case Tok::LParen: {
      Nest N(*this);
      if (!N)
        return std::make_unique<IntLitExpr>(0, L, C);
      ++Pos;
      ExprPtr E = parseExpr();
      expect(Tok::RParen, "to close parenthesized expression");
      return E;
    }
    default:
      error("expected an expression, found " +
            std::string(tokName(cur().Kind)));
      ++Pos;
      return std::make_unique<IntLitExpr>(0, L, C);
    }
  }

  std::vector<Token> Toks;
  std::vector<Diag> &Diags;
  size_t Pos = 0;
  unsigned Depth = 0;
  bool TooDeep = false;
  Program P;
};

} // namespace

Program rpcc::parseProgram(const std::string &Source,
                           std::vector<Diag> &Diags) {
  std::vector<Token> Toks = lex(Source, Diags);
  return Parser(std::move(Toks), Diags).run();
}
