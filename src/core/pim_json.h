/**
 * @file
 * Minimal header-only JSON support shared by every writer and reader
 * in the codebase: jsonEscape is the one string escaper the exporters
 * and benches write with, jsonFinite the one guard against NaN and
 * infinity in written numbers, and the reader serves the exporters'
 * validation paths (pimValidateChromeTraceFile in pim_trace.cpp,
 * pimValidateProfileFile in pim_profile.cpp) and the tests that parse
 * the files the simulator writes. Not a general-purpose library: it
 * parses exactly the JSON this codebase emits — objects, arrays,
 * strings, numbers, bools, null — into a small DOM.
 */

#ifndef PIMEVAL_CORE_PIM_JSON_H_
#define PIMEVAL_CORE_PIM_JSON_H_

#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pimeval {

/**
 * Escape @p s for embedding in a JSON string literal: quote,
 * backslash and every control character, so any path or label
 * round-trips through JsonParser.
 */
inline std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** @p v, or 0 when it is NaN or infinite, which JSON cannot hold. */
inline double
jsonFinite(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

/** Tiny JSON DOM (objects keep insertion order). */
struct JsonValue
{
    enum class Kind {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject
    };
    Kind kind = Kind::kNull;
    double number = 0.0;
    bool boolean = false;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *find(const std::string &key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool parse(JsonValue *out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON value");
        return true;
    }

  private:
    bool fail(const std::string &msg)
    {
        if (error_ && error_->empty())
            *error_ = msg + " (offset " + std::to_string(pos_) + ")";
        return false;
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool parseValue(JsonValue *out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out->kind = JsonValue::Kind::kString;
            return parseString(&out->str);
        }
        if (c == 't' || c == 'f') {
            const char *word = c == 't' ? "true" : "false";
            const size_t len = c == 't' ? 4 : 5;
            if (text_.compare(pos_, len, word) != 0)
                return fail("bad literal");
            out->kind = JsonValue::Kind::kBool;
            out->boolean = c == 't';
            pos_ += len;
            return true;
        }
        if (c == 'n') {
            if (text_.compare(pos_, 4, "null") != 0)
                return fail("bad literal");
            out->kind = JsonValue::Kind::kNull;
            pos_ += 4;
            return true;
        }
        return parseNumber(out);
    }

    bool parseString(std::string *out)
    {
        ++pos_; // opening quote
        out->clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("bad escape");
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"': *out += '"'; break;
                  case '\\': *out += '\\'; break;
                  case '/': *out += '/'; break;
                  case 'n': *out += '\n'; break;
                  case 't': *out += '\t'; break;
                  case 'r': *out += '\r'; break;
                  case 'b': *out += '\b'; break;
                  case 'f': *out += '\f'; break;
                  case 'u':
                    if (!parseUnicodeEscape(out))
                        return fail("bad \\u escape");
                    break;
                  default:
                    return fail("bad escape");
                }
            } else {
                *out += c;
            }
        }
        return fail("unterminated string");
    }

    /** Decode the four hex digits after "\\u" to UTF-8 (a surrogate
     *  half encodes as-is: the writers never emit pairs). */
    bool parseUnicodeEscape(std::string *out)
    {
        if (pos_ + 4 > text_.size())
            return false;
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            if (!std::isxdigit(static_cast<unsigned char>(h)))
                return false;
            cp = cp * 16 +
                (std::isdigit(static_cast<unsigned char>(h))
                     ? h - '0'
                     : (std::tolower(static_cast<unsigned char>(h)) -
                        'a' + 10));
        }
        if (cp < 0x80) {
            *out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            *out += static_cast<char>(0xC0 | (cp >> 6));
            *out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            *out += static_cast<char>(0xE0 | (cp >> 12));
            *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        return true;
    }

    bool parseNumber(JsonValue *out)
    {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(
                    static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            return fail("expected a JSON value");
        try {
            out->number = std::stod(text_.substr(start, pos_ - start));
        } catch (...) {
            return fail("bad number");
        }
        out->kind = JsonValue::Kind::kNumber;
        return true;
    }

    bool parseArray(JsonValue *out)
    {
        out->kind = JsonValue::Kind::kArray;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue elem;
            skipWs();
            if (!parseValue(&elem))
                return false;
            out->array.push_back(std::move(elem));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool parseObject(JsonValue *out)
    {
        out->kind = JsonValue::Kind::kObject;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            JsonValue value;
            if (!parseValue(&value))
                return false;
            out->object.emplace_back(std::move(key),
                                     std::move(value));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
};

} // namespace pimeval

#endif // PIMEVAL_CORE_PIM_JSON_H_
