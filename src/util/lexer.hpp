// Text input shared by every file format DIAC reads.
//
// `read_text_file` loads a file whole; `next_line` and `trim_blanks` scan
// it line by line (the trace CSV); `Lexer` splits netlist text (BENCH,
// BLIF, structural Verilog) into string-view tokens tagged with their
// 1-based line.  A format's `LexSpec` sets the comment marker, the
// characters that are tokens by themselves, whether line ends are tokens
// and whether '\' before a line end joins two lines; any other run of
// non-blank characters is one word.  Errors name their line.
#pragma once

#include <array>
#include <cstring>
#include <string>
#include <string_view>

namespace diac {

// One sized read (a stream read for a pipe).  Throws std::runtime_error
// "cannot open <what> file: <path>" (or "cannot read ...").
std::string read_text_file(const std::string& path, std::string_view what);

// Throws std::runtime_error("<where><line>: <what>").
[[noreturn]] void throw_at_line(std::string_view where, std::size_t line,
                                std::string_view what);

// `s` without its leading and trailing blanks (space, \t, \r, \v, \f).
inline std::string_view trim_blanks(std::string_view s) {
  const auto blank = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  };
  while (!s.empty() && blank(s.front())) s.remove_prefix(1);
  while (!s.empty() && blank(s.back())) s.remove_suffix(1);
  return s;
}

// Removes the first line (without its '\n') from `text` and returns it.
inline std::string_view next_line(std::string_view& text) {
  const auto* nl =
      static_cast<const char*>(std::memchr(text.data(), '\n', text.size()));
  const std::size_t len =
      nl ? static_cast<std::size_t>(nl - text.data()) : text.size();
  const std::string_view line = text.substr(0, len);
  text.remove_prefix(nl ? len + 1 : len);
  return line;
}

struct LexSpec {
  const char* error_prefix;  // "bench parse error at line "
  std::string_view comment;  // "#" or "//": to the end of the line
  std::string_view punct;    // characters that are tokens by themselves
  bool newlines;             // yield "\n" at every line end
  bool continuation;         // '\' right before a line end joins the lines
};

struct Token {
  std::string_view text;  // "\n" at a line end; empty at the end
  int line;
};

class Lexer {
 public:
  Lexer(std::string_view text, const LexSpec& spec)
      : spec_(spec), pos_(text.data()), end_(pos_ + text.size()) {
    for (const char c : std::string_view(" \t\r\v\f")) cls_[uc(c)] = kBlank;
    cls_[uc('\n')] = kNewline;
    for (const char c : spec.punct) cls_[uc(c)] = kPunct;
    if (!spec.comment.empty()) cls_[uc(spec.comment[0])] = kSpecial;
    if (spec.continuation) cls_[uc('\\')] = kSpecial;
    advance();
  }

  int line() const { return tok_.line; }
  bool at(std::string_view s) const { return tok_.text == s; }
  bool at_end() const { return tok_.text.empty(); }
  bool at_eol() const { return at_end() || at("\n"); }
  // Neither punctuation, a line end nor the end.
  bool at_word() const {
    return !at_eol() && (tok_.text.size() > 1 || cls(tok_.text[0]) != kPunct);
  }

  Token next() {
    const Token t = tok_;
    advance();
    return t;
  }
  bool accept(std::string_view s) { return at(s) && (advance(), true); }
  void expect(std::string_view s) {
    if (!accept(s)) fail_found("'" + std::string(s) + "'");
  }
  std::string_view word(std::string_view what) {
    if (!at_word()) fail_found(std::string(what));
    return next().text;
  }
  // Ends a statement: a line end or the end of the text.
  void end_line() {
    if (!at_end() && !accept("\n")) fail_found("the end of the line");
  }

  [[noreturn]] void fail(std::string_view what) const { fail(tok_.line, what); }
  [[noreturn]] void fail(int line, std::string_view what) const {
    throw_at_line(spec_.error_prefix, static_cast<std::size_t>(line), what);
  }

 private:
  enum Class : unsigned char { kWord, kBlank, kNewline, kPunct, kSpecial };
  static unsigned char uc(char c) { return static_cast<unsigned char>(c); }
  Class cls(char c) const { return cls_[uc(c)]; }

  [[noreturn]] void fail_found(const std::string& expected) const {
    fail("expected " + expected + ", found " +
         (at_end()    ? std::string("end of file")
          : at("\n") ? std::string("end of line")
                     : "'" + std::string(tok_.text) + "'"));
  }

  // A line continuation or the comment marker starts at `p`.
  bool special_at(const char* p) const {
    if (*p == '\\' && spec_.continuation) {
      const char* q = p + 1 + (p + 1 != end_ && p[1] == '\r');
      return q != end_ && *q == '\n';
    }
    return static_cast<std::size_t>(end_ - p) >= spec_.comment.size() &&
           std::memcmp(p, spec_.comment.data(), spec_.comment.size()) == 0;
  }

  bool in_word(const char* p) const {
    return cls(*p) == kWord || (cls(*p) == kSpecial && !special_at(p));
  }

  void advance() {
    for (; pos_ != end_; ++pos_) {
      const Class k = cls(*pos_);
      if (k == kBlank) continue;
      if (k == kNewline && !spec_.newlines) {
        ++line_;
        continue;
      }
      if (k == kNewline || k == kPunct) {
        tok_ = {{pos_++, 1}, line_};
        line_ += k == kNewline;
        return;
      }
      if (k == kSpecial && special_at(pos_)) {
        // A continuation skips its line end; a comment stops before it.
        const bool joins = *pos_ == '\\' && spec_.continuation;
        const void* nl =
            std::memchr(pos_, '\n', static_cast<std::size_t>(end_ - pos_));
        pos_ = (nl ? static_cast<const char*>(nl) : end_) - !joins;
        line_ += joins;
        continue;
      }
      const char* start = pos_;
      while (++pos_ != end_ && in_word(pos_)) {
      }
      tok_ = {{start, static_cast<std::size_t>(pos_ - start)}, line_};
      return;
    }
    tok_ = {{}, line_};
  }

  LexSpec spec_;
  const char* pos_;
  const char* end_;
  int line_ = 1;
  Token tok_{};
  std::array<Class, 256> cls_{};  // kWord unless set
};

}  // namespace diac
