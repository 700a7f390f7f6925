#include "dfl/lexer.h"

#include <string_view>

namespace record::dfl {

const char* tokName(Tok t) {
  switch (t) {
    case Tok::End: return "<eof>";
    case Tok::Ident: return "identifier";
    case Tok::Number: return "number";
    case Tok::KwProgram: return "'program'";
    case Tok::KwInput: return "'input'";
    case Tok::KwOutput: return "'output'";
    case Tok::KwVar: return "'var'";
    case Tok::KwConst: return "'const'";
    case Tok::KwDelay: return "'delay'";
    case Tok::KwFix: return "'fix'";
    case Tok::KwInt: return "'int'";
    case Tok::KwBegin: return "'begin'";
    case Tok::KwEnd: return "'end'";
    case Tok::KwFor: return "'for'";
    case Tok::KwTo: return "'to'";
    case Tok::KwStep: return "'step'";
    case Tok::KwDo: return "'do'";
    case Tok::KwEndfor: return "'endfor'";
    case Tok::Semi: return "';'";
    case Tok::Colon: return "':'";
    case Tok::Assign: return "':='";
    case Tok::Comma: return "','";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::PlusSat: return "'+|'";
    case Tok::MinusSat: return "'-|'";
    case Tok::Shl: return "'<<'";
    case Tok::Shr: return "'>>'";
    case Tok::Shru: return "'>>>'";
    case Tok::At: return "'@'";
    case Tok::Eq: return "'='";
    case Tok::Amp: return "'&'";
    case Tok::Pipe: return "'|'";
    case Tok::Caret: return "'^'";
  }
  return "?";
}

namespace {

bool isAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool isDigit(char c) { return c >= '0' && c <= '9'; }
bool isHexDigit(char c) {
  return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

/// The keyword `id` spells, or Tok::Ident.
Tok keyword(std::string_view id) {
  struct Kw {
    std::string_view text;
    Tok tok;
  };
  static constexpr Kw kKeywords[] = {
      {"program", Tok::KwProgram}, {"input", Tok::KwInput},
      {"output", Tok::KwOutput},   {"var", Tok::KwVar},
      {"const", Tok::KwConst},     {"delay", Tok::KwDelay},
      {"fix", Tok::KwFix},         {"int", Tok::KwInt},
      {"begin", Tok::KwBegin},     {"end", Tok::KwEnd},
      {"for", Tok::KwFor},         {"to", Tok::KwTo},
      {"step", Tok::KwStep},       {"do", Tok::KwDo},
      {"endfor", Tok::KwEndfor},
  };
  for (const Kw& kw : kKeywords)
    if (kw.text == id) return kw.tok;
  return Tok::Ident;
}

}  // namespace

Lexer::Lexer(std::string source, DiagEngine& diag)
    : src_(std::move(source)), diag_(diag) {}

char Lexer::peek(int ahead) const {
  size_t i = pos_ + static_cast<size_t>(ahead);
  return i < src_.size() ? src_[i] : '\0';
}

char Lexer::advance() {
  char c = src_[pos_++];
  if (c == '\n') {
    ++line_;
    col_ = 1;
  } else {
    ++col_;
  }
  return c;
}

bool Lexer::atEnd() const { return pos_ >= src_.size(); }

SourceLoc Lexer::here() const { return {line_, col_, diag_.sourceName()}; }

Token Lexer::next() {
  // Skip whitespace and comments.
  while (!atEnd()) {
    char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
    } else if (c == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n') advance();
    } else {
      break;
    }
  }
  Token t;
  t.loc = here();
  if (atEnd()) {
    t.kind = Tok::End;
    return t;
  }
  const size_t start = pos_;
  char c = advance();
  if (isAlpha(c)) {
    // Identifiers never span a newline, so only the column moves.
    while (!atEnd() && (isAlpha(src_[pos_]) || isDigit(src_[pos_]))) ++pos_;
    col_ += static_cast<int>(pos_ - start - 1);
    const std::string_view id(src_.data() + start, pos_ - start);
    t.kind = keyword(id);
    t.text = id;
    return t;
  }
  if (isDigit(c)) {
    // Literals denote 16-bit data words, so anything past 0xffff is a
    // typo, not a bigger number; accumulate in uint64 with a clamp (the
    // old int64 accumulation overflowed -- undefined behavior -- on
    // absurdly long literals) and diagnose once per literal.
    constexpr uint64_t kMax = 0xffff;
    uint64_t v = static_cast<uint64_t>(c - '0');
    bool overflow = false;
    // Hex literals: 0x...
    if (v == 0 && (peek() == 'x' || peek() == 'X')) {
      advance();
      bool any = false;
      while (!atEnd() && isHexDigit(peek())) {
        char d = advance();
        any = true;
        v = v * 16 + static_cast<uint64_t>(isDigit(d)   ? d - '0'
                                           : d >= 'a' ? d - 'a' + 10
                                                      : d - 'A' + 10);
        if (v > kMax) {
          overflow = true;
          v = kMax;
        }
      }
      if (!any) diag_.error(t.loc, "hex literal with no digits");
    } else {
      while (!atEnd() && isDigit(peek())) {
        v = v * 10 + static_cast<uint64_t>(advance() - '0');
        if (v > kMax) {
          overflow = true;
          v = kMax;
        }
      }
    }
    if (overflow)
      diag_.error(t.loc,
                  "integer literal exceeds the 16-bit data word (max 65535)");
    t.kind = Tok::Number;
    t.number = static_cast<int64_t>(v);
    return t;
  }
  switch (c) {
    case ';': t.kind = Tok::Semi; return t;
    case ',': t.kind = Tok::Comma; return t;
    case '(': t.kind = Tok::LParen; return t;
    case ')': t.kind = Tok::RParen; return t;
    case '[': t.kind = Tok::LBracket; return t;
    case ']': t.kind = Tok::RBracket; return t;
    case '*': t.kind = Tok::Star; return t;
    case '@': t.kind = Tok::At; return t;
    case '=': t.kind = Tok::Eq; return t;
    case '&': t.kind = Tok::Amp; return t;
    case '|': t.kind = Tok::Pipe; return t;
    case '^': t.kind = Tok::Caret; return t;
    case ':':
      if (peek() == '=') {
        advance();
        t.kind = Tok::Assign;
      } else {
        t.kind = Tok::Colon;
      }
      return t;
    case '+':
      if (peek() == '|') {
        advance();
        t.kind = Tok::PlusSat;
      } else {
        t.kind = Tok::Plus;
      }
      return t;
    case '-':
      if (peek() == '|') {
        advance();
        t.kind = Tok::MinusSat;
      } else {
        t.kind = Tok::Minus;
      }
      return t;
    case '<':
      if (peek() == '<') {
        advance();
        t.kind = Tok::Shl;
        return t;
      }
      break;
    case '>':
      if (peek() == '>') {
        advance();
        if (peek() == '>') {
          advance();
          t.kind = Tok::Shru;
        } else {
          t.kind = Tok::Shr;
        }
        return t;
      }
      break;
    default:
      break;
  }
  diag_.error(t.loc, std::string("unexpected character '") + c + "'");
  return next();
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> out;
  out.reserve(src_.size() / 2 + 1);  // DFL averages ~2.7 bytes per token
  for (;;) {
    Token t = next();
    bool end = (t.kind == Tok::End);
    out.push_back(std::move(t));
    if (end) break;
  }
  return out;
}

}  // namespace record::dfl
