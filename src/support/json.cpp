#include "support/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace record::json {

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : obj)
    if (k == key) return &v;
  return nullptr;
}

namespace {

struct Parser {
  explicit Parser(const std::string& text) : in(text) {}

  const std::string& in;
  size_t pos = 0;
  std::string err;

  bool fail(const std::string& what) {
    if (err.empty())
      err = what + " at offset " + std::to_string(pos);
    return false;
  }

  void skipWs() {
    while (pos < in.size() &&
           (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n' ||
            in[pos] == '\r'))
      ++pos;
  }

  bool consume(char c) {
    skipWs();
    if (pos < in.size() && in[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parseString(std::string& out) {
    skipWs();
    if (pos >= in.size() || in[pos] != '"') return fail("expected string");
    ++pos;
    while (pos < in.size()) {
      char c = in[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= in.size()) return fail("bad escape");
        char e = in[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > in.size()) return fail("bad \\u escape");
            for (int i = 0; i < 4; ++i)
              if (!std::isxdigit(static_cast<unsigned char>(in[pos + i])))
                return fail("bad \\u escape");
            // Validation only: non-ASCII escapes are kept literally.
            out += "\\u";
            out.append(in, pos, 4);
            pos += 4;
            break;
          }
          default:
            return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parseValue(Value& v, int depth) {
    if (depth > 64) return fail("nesting too deep");
    skipWs();
    if (pos >= in.size()) return fail("unexpected end of input");
    char c = in[pos];
    if (c == '{') {
      ++pos;
      v.kind = Value::Kind::Object;
      skipWs();
      if (pos < in.size() && in[pos] == '}') {
        ++pos;
        return true;
      }
      while (true) {
        std::string key;
        if (!parseString(key)) return false;
        if (!consume(':')) return false;
        Value member;
        if (!parseValue(member, depth + 1)) return false;
        v.obj.emplace_back(std::move(key), std::move(member));
        skipWs();
        if (pos < in.size() && in[pos] == ',') {
          ++pos;
          continue;
        }
        return consume('}');
      }
    }
    if (c == '[') {
      ++pos;
      v.kind = Value::Kind::Array;
      skipWs();
      if (pos < in.size() && in[pos] == ']') {
        ++pos;
        return true;
      }
      while (true) {
        Value elem;
        if (!parseValue(elem, depth + 1)) return false;
        v.arr.push_back(std::move(elem));
        skipWs();
        if (pos < in.size() && in[pos] == ',') {
          ++pos;
          continue;
        }
        return consume(']');
      }
    }
    if (c == '"') {
      v.kind = Value::Kind::String;
      return parseString(v.str);
    }
    if (in.compare(pos, 4, "true") == 0) {
      v.kind = Value::Kind::Bool;
      v.boolean = true;
      pos += 4;
      return true;
    }
    if (in.compare(pos, 5, "false") == 0) {
      v.kind = Value::Kind::Bool;
      v.boolean = false;
      pos += 5;
      return true;
    }
    if (in.compare(pos, 4, "null") == 0) {
      v.kind = Value::Kind::Null;
      pos += 4;
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      const char* start = in.c_str() + pos;
      char* end = nullptr;
      v.kind = Value::Kind::Number;
      v.number = std::strtod(start, &end);
      if (end == start) return fail("bad number");
      pos += static_cast<size_t>(end - start);
      return true;
    }
    return fail("unexpected character");
  }
};

}  // namespace

std::optional<Value> parse(const std::string& text, std::string* err) {
  Parser p(text);
  Value v;
  if (!p.parseValue(v, 0)) {
    if (err) *err = p.err;
    return std::nullopt;
  }
  p.skipWs();
  if (p.pos != text.size()) {
    if (err) *err = "trailing garbage at offset " + std::to_string(p.pos);
    return std::nullopt;
  }
  return v;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace record::json
