#include "condorg/classad/value.h"

#include <charconv>
#include <cmath>

#include "condorg/util/strings.h"

namespace condorg::classad {

Value Value::list(ValueList items) {
  Value v;
  v.data_ = std::make_shared<const ValueList>(std::move(items));
  return v;
}

Value::Type Value::type() const {
  switch (data_.index()) {
    case 0: return Type::kUndefined;
    case 1: return Type::kError;
    case 2: return Type::kBool;
    case 3: return Type::kInt;
    case 4: return Type::kReal;
    case 5: return Type::kString;
    default: return Type::kList;
  }
}

const ValueList& Value::as_list() const {
  return *std::get<std::shared_ptr<const ValueList>>(data_);
}

bool Value::to_number(double& out) const {
  switch (type()) {
    case Type::kInt:
      out = static_cast<double>(as_int());
      return true;
    case Type::kReal:
      out = as_real();
      return true;
    case Type::kBool:
      out = as_bool() ? 1.0 : 0.0;
      return true;
    default:
      return false;
  }
}

namespace {
std::string escape_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}
}  // namespace

std::string Value::unparse() const {
  switch (type()) {
    case Type::kUndefined: return "undefined";
    case Type::kError: return "error";
    case Type::kBool: return as_bool() ? "true" : "false";
    case Type::kInt: return std::to_string(as_int());
    case Type::kReal: {
      // Keep reals recognizably real on round-trip: an integral real keeps
      // its ".0", and the non-finite ones are spelled as ClassAd
      // expressions (a bare "inf" would read back as an attribute name).
      const double d = as_real();
      if (std::isinf(d)) return d > 0 ? "real(\"INF\")" : "-real(\"INF\")";
      if (std::isnan(d)) return "real(\"NaN\")";
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        char buf[24];
        const auto result = std::to_chars(buf, buf + sizeof buf, d,
                                          std::chars_format::fixed);
        return std::string(buf, result.ptr) + ".0";
      }
      return util::format_double(d);
    }
    case Type::kString: return escape_string(as_string());
    case Type::kList: {
      std::string out = "{";
      const ValueList& items = as_list();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) out += ", ";
        out += items[i].unparse();
      }
      out += "}";
      return out;
    }
  }
  return "error";
}

bool Value::same_as(const Value& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case Type::kUndefined:
    case Type::kError: return true;
    case Type::kBool: return as_bool() == other.as_bool();
    case Type::kInt: return as_int() == other.as_int();
    case Type::kReal: return as_real() == other.as_real();
    case Type::kString: return as_string() == other.as_string();
    case Type::kList: {
      const ValueList& a = as_list();
      const ValueList& b = other.as_list();
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (!a[i].same_as(b[i])) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace condorg::classad
