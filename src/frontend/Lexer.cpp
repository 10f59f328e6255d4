//===- frontend/Lexer.cpp -------------------------------------------------===//

#include "frontend/Lexer.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

using namespace rpcc;

std::string rpcc::renderDiags(const std::vector<Diag> &Diags) {
  std::string Out;
  for (const Diag &D : Diags)
    Out += std::to_string(D.Line) + ":" + std::to_string(D.Col) + ": " +
           D.Message + "\n";
  return Out;
}

const char *rpcc::tokName(Tok K) {
  switch (K) {
  case Tok::Eof: return "end of file";
  case Tok::Ident: return "identifier";
  case Tok::IntLit: return "integer literal";
  case Tok::FloatLit: return "float literal";
  case Tok::StrLit: return "string literal";
  case Tok::KwInt: return "'int'";
  case Tok::KwChar: return "'char'";
  case Tok::KwFloat: return "'float'";
  case Tok::KwVoid: return "'void'";
  case Tok::KwStruct: return "'struct'";
  case Tok::KwConst: return "'const'";
  case Tok::KwIf: return "'if'";
  case Tok::KwElse: return "'else'";
  case Tok::KwWhile: return "'while'";
  case Tok::KwFor: return "'for'";
  case Tok::KwDo: return "'do'";
  case Tok::KwReturn: return "'return'";
  case Tok::KwBreak: return "'break'";
  case Tok::KwContinue: return "'continue'";
  case Tok::KwSizeof: return "'sizeof'";
  case Tok::LParen: return "'('";
  case Tok::RParen: return "')'";
  case Tok::LBrace: return "'{'";
  case Tok::RBrace: return "'}'";
  case Tok::LBracket: return "'['";
  case Tok::RBracket: return "']'";
  case Tok::Comma: return "','";
  case Tok::Semi: return "';'";
  case Tok::Dot: return "'.'";
  case Tok::Arrow: return "'->'";
  case Tok::Question: return "'?'";
  case Tok::Colon: return "':'";
  case Tok::Assign: return "'='";
  case Tok::PlusAssign: return "'+='";
  case Tok::MinusAssign: return "'-='";
  case Tok::StarAssign: return "'*='";
  case Tok::SlashAssign: return "'/='";
  case Tok::PercentAssign: return "'%='";
  case Tok::Plus: return "'+'";
  case Tok::Minus: return "'-'";
  case Tok::Star: return "'*'";
  case Tok::Slash: return "'/'";
  case Tok::Percent: return "'%'";
  case Tok::PlusPlus: return "'++'";
  case Tok::MinusMinus: return "'--'";
  case Tok::Amp: return "'&'";
  case Tok::AmpAmp: return "'&&'";
  case Tok::Pipe: return "'|'";
  case Tok::PipePipe: return "'||'";
  case Tok::Caret: return "'^'";
  case Tok::Tilde: return "'~'";
  case Tok::Bang: return "'!'";
  case Tok::Shl: return "'<<'";
  case Tok::Shr: return "'>>'";
  case Tok::Lt: return "'<'";
  case Tok::Gt: return "'>'";
  case Tok::Le: return "'<='";
  case Tok::Ge: return "'>='";
  case Tok::EqEq: return "'=='";
  case Tok::Ne: return "'!='";
  }
  return "?";
}

namespace {

const std::unordered_map<std::string, Tok> &keywords() {
  static const std::unordered_map<std::string, Tok> KW = {
      {"int", Tok::KwInt},       {"char", Tok::KwChar},
      {"float", Tok::KwFloat},   {"double", Tok::KwFloat},
      {"void", Tok::KwVoid},     {"struct", Tok::KwStruct},
      {"const", Tok::KwConst},   {"if", Tok::KwIf},
      {"else", Tok::KwElse},     {"while", Tok::KwWhile},
      {"for", Tok::KwFor},       {"do", Tok::KwDo},
      {"return", Tok::KwReturn}, {"break", Tok::KwBreak},
      {"continue", Tok::KwContinue}, {"sizeof", Tok::KwSizeof},
  };
  return KW;
}

class LexerImpl {
public:
  LexerImpl(const std::string &Src, std::vector<Diag> &Diags)
      : Src(Src), Diags(Diags) {}

  std::vector<Token> run() {
    std::vector<Token> Out;
    for (;;) {
      skipTrivia();
      Token T = next();
      Out.push_back(T);
      if (T.Kind == Tok::Eof)
        break;
    }
    return Out;
  }

private:
  char peek(size_t Off = 0) const {
    return Pos + Off < Src.size() ? Src[Pos + Off] : '\0';
  }

  char advance() {
    char C = peek();
    ++Pos;
    if (C == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    return C;
  }

  bool match(char C) {
    if (peek() != C)
      return false;
    advance();
    return true;
  }

  void error(const std::string &Msg) { Diags.push_back({Line, Col, Msg}); }
  /// Reports at the first character of the token being lexed.
  void errorAtStart(const std::string &Msg) {
    Diags.push_back({StartLine, StartCol, Msg});
  }

  void skipTrivia() {
    for (;;) {
      char C = peek();
      if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
        advance();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        while (peek() && peek() != '\n')
          advance();
        continue;
      }
      if (C == '/' && peek(1) == '*') {
        advance();
        advance();
        while (peek() && !(peek() == '*' && peek(1) == '/'))
          advance();
        if (!peek())
          error("unterminated block comment");
        else {
          advance();
          advance();
        }
        continue;
      }
      return;
    }
  }

  Token mk(Tok K) {
    Token T;
    T.Kind = K;
    T.Line = StartLine;
    T.Col = StartCol;
    return T;
  }

  int64_t escape(char C) {
    switch (C) {
    case 'n': return '\n';
    case 't': return '\t';
    case 'r': return '\r';
    case '0': return 0;
    case '\\': return '\\';
    case '\'': return '\'';
    case '"': return '"';
    default:
      error(std::string("unknown escape '\\") + C + "'");
      return C;
    }
  }

  Token next() {
    StartLine = Line;
    StartCol = Col;
    char C = peek();
    if (!C)
      return mk(Tok::Eof);

    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
      return identifier();
    if (std::isdigit(static_cast<unsigned char>(C)))
      return number();
    if (C == '\'')
      return charLit();
    if (C == '"')
      return strLit();
    return punct();
  }

  Token identifier() {
    std::string S;
    while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
      S.push_back(advance());
    auto It = keywords().find(S);
    if (It != keywords().end())
      return mk(It->second);
    Token T = mk(Tok::Ident);
    T.Text = std::move(S);
    return T;
  }

  Token number() {
    std::string S;
    bool IsFloat = false;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      advance();
      advance();
      while (std::isxdigit(static_cast<unsigned char>(peek())))
        S.push_back(advance());
      // Hex literals take any 64-bit pattern (0xFFFFFFFFFFFFFFFF is -1).
      uint64_t V = 0;
      if (S.empty())
        errorAtStart("hexadecimal literal has no digits");
      else if (std::from_chars(S.data(), S.data() + S.size(), V, 16).ec !=
               std::errc())
        errorAtStart("integer literal out of range");
      Token T = mk(Tok::IntLit);
      T.IntVal = static_cast<int64_t>(V);
      return T;
    }
    while (std::isdigit(static_cast<unsigned char>(peek())))
      S.push_back(advance());
    if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
      IsFloat = true;
      S.push_back(advance());
      while (std::isdigit(static_cast<unsigned char>(peek())))
        S.push_back(advance());
    }
    if (peek() == 'e' || peek() == 'E') {
      IsFloat = true;
      S.push_back(advance());
      if (peek() == '+' || peek() == '-')
        S.push_back(advance());
      while (std::isdigit(static_cast<unsigned char>(peek())))
        S.push_back(advance());
    }
    if (IsFloat) {
      // Overflow is an error; underflow keeps strtod's (denormal or zero)
      // value, as C compilers do.
      errno = 0;
      double V = std::strtod(S.c_str(), nullptr);
      if (errno == ERANGE && std::isinf(V)) {
        errorAtStart("floating literal out of range");
        V = 0;
      }
      Token T = mk(Tok::FloatLit);
      T.FloatVal = V;
      return T;
    }
    int64_t V = 0;
    if (std::from_chars(S.data(), S.data() + S.size(), V).ec != std::errc())
      errorAtStart("integer literal out of range");
    Token T = mk(Tok::IntLit);
    T.IntVal = V;
    return T;
  }

  Token charLit() {
    advance(); // '
    int64_t V = 0;
    if (peek() == '\\') {
      advance();
      V = escape(advance());
    } else if (peek()) {
      V = static_cast<unsigned char>(advance());
    }
    if (!match('\''))
      error("unterminated character literal");
    Token T = mk(Tok::IntLit);
    T.IntVal = V;
    return T;
  }

  Token strLit() {
    advance(); // "
    std::string S;
    while (peek() && peek() != '"') {
      char C = advance();
      if (C == '\\')
        S.push_back(static_cast<char>(escape(advance())));
      else
        S.push_back(C);
    }
    if (!match('"'))
      error("unterminated string literal");
    Token T = mk(Tok::StrLit);
    T.Text = std::move(S);
    return T;
  }

  Token punct() {
    char C = advance();
    switch (C) {
    case '(': return mk(Tok::LParen);
    case ')': return mk(Tok::RParen);
    case '{': return mk(Tok::LBrace);
    case '}': return mk(Tok::RBrace);
    case '[': return mk(Tok::LBracket);
    case ']': return mk(Tok::RBracket);
    case ',': return mk(Tok::Comma);
    case ';': return mk(Tok::Semi);
    case '.': return mk(Tok::Dot);
    case '?': return mk(Tok::Question);
    case ':': return mk(Tok::Colon);
    case '~': return mk(Tok::Tilde);
    case '^': return mk(Tok::Caret);
    case '+':
      if (match('+')) return mk(Tok::PlusPlus);
      if (match('=')) return mk(Tok::PlusAssign);
      return mk(Tok::Plus);
    case '-':
      if (match('-')) return mk(Tok::MinusMinus);
      if (match('=')) return mk(Tok::MinusAssign);
      if (match('>')) return mk(Tok::Arrow);
      return mk(Tok::Minus);
    case '*':
      if (match('=')) return mk(Tok::StarAssign);
      return mk(Tok::Star);
    case '/':
      if (match('=')) return mk(Tok::SlashAssign);
      return mk(Tok::Slash);
    case '%':
      if (match('=')) return mk(Tok::PercentAssign);
      return mk(Tok::Percent);
    case '&':
      if (match('&')) return mk(Tok::AmpAmp);
      return mk(Tok::Amp);
    case '|':
      if (match('|')) return mk(Tok::PipePipe);
      return mk(Tok::Pipe);
    case '!':
      if (match('=')) return mk(Tok::Ne);
      return mk(Tok::Bang);
    case '=':
      if (match('=')) return mk(Tok::EqEq);
      return mk(Tok::Assign);
    case '<':
      if (match('<')) return mk(Tok::Shl);
      if (match('=')) return mk(Tok::Le);
      return mk(Tok::Lt);
    case '>':
      if (match('>')) return mk(Tok::Shr);
      if (match('=')) return mk(Tok::Ge);
      return mk(Tok::Gt);
    default:
      error(std::string("unexpected character '") + C + "'");
      return next();
    }
  }

  const std::string &Src;
  std::vector<Diag> &Diags;
  size_t Pos = 0;
  unsigned Line = 1, Col = 1;
  unsigned StartLine = 1, StartCol = 1;
};

} // namespace

std::vector<Token> rpcc::lex(const std::string &Source,
                             std::vector<Diag> &Diags) {
  return LexerImpl(Source, Diags).run();
}
