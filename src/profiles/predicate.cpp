#include "profiles/predicate.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"

namespace gsalert::profiles {

const char* op_name(Op op) {
  switch (op) {
    case Op::kEq:
      return "=";
    case Op::kNeq:
      return "!=";
    case Op::kWildcard:
      return "=~";
    case Op::kNotWildcard:
      return "!~";
    case Op::kIn:
      return "IN";
    case Op::kNotIn:
      return "NOT IN";
    case Op::kQuery:
      return "~";
    case Op::kNotQuery:
      return "NOT ~";
  }
  return "?";
}

bool is_negative_op(Op op) {
  return op == Op::kNeq || op == Op::kNotWildcard || op == Op::kNotIn ||
         op == Op::kNotQuery;
}

Op positive_op(Op op) {
  switch (op) {
    case Op::kNeq:
      return Op::kEq;
    case Op::kNotWildcard:
      return Op::kWildcard;
    case Op::kNotIn:
      return Op::kIn;
    case Op::kNotQuery:
      return Op::kQuery;
    default:
      return op;
  }
}

bool Predicate::is_doc_level() const {
  if (op == Op::kQuery || op == Op::kNotQuery) return true;
  return !is_macro_attribute(attribute);
}

namespace {

bool value_op_matches(Op op, const Predicate& p, const std::string& value) {
  switch (op) {
    case Op::kEq:
      return value == p.value;
    case Op::kWildcard:
      return wildcard_match(p.value, value);
    case Op::kIn:
      return std::find(p.values.begin(), p.values.end(), value) !=
             p.values.end();
    default:
      return false;
  }
}

}  // namespace

bool Predicate::eval(const EventContext& ctx) const {
  if (is_doc_level()) {
    // Doc-level semantics: positive predicates need SOME document to match;
    // negative predicates need NO document to match the positive form
    // (e.g. NOT doc_id IN [7] = "the event does not touch document 7").
    const Op pos = positive_op(op);
    if (pos == Op::kQuery && ctx.engine() != nullptr && query != nullptr) {
      // Index-based path (§5): run the query on the collection's inverted
      // index and test whether any of the event's documents is a hit. The
      // posting list is cached in the event context by canonical query
      // text, so N profiles sharing a filter query cost one index search.
      const retrieval::PostingList& hits = ctx.cached_search(*query);
      const bool any = std::any_of(
          ctx.docs().begin(), ctx.docs().end(),
          [&](const docmodel::Document& d) {
            return std::binary_search(hits.begin(), hits.end(), d.id);
          });
      return is_negative_op(op) ? !any : any;
    }
    if (pos == Op::kQuery) {
      // No engine available: evaluate the query per document (the scan
      // result is cached per query text in the event context too).
      const bool any = query != nullptr && ctx.any_doc_matches(*query);
      return is_negative_op(op) ? !any : any;
    }
    // EQ / IN / wildcard over documents: answered from the per-event
    // micro index, amortized across every candidate for this event.
    const auto& index = ctx.doc_index().values;
    const auto attr_it = index.find(attribute);
    bool any = false;
    if (attr_it != index.end()) {
      switch (pos) {
        case Op::kEq:
          any = attr_it->second.contains(value);
          break;
        case Op::kIn:
          any = std::any_of(values.begin(), values.end(),
                            [&](const std::string& v) {
                              return attr_it->second.contains(v);
                            });
          break;
        case Op::kWildcard:
          any = std::any_of(attr_it->second.begin(), attr_it->second.end(),
                            [&](const auto& entry) {
                              return wildcard_match(value, entry.first);
                            });
          break;
        default:
          break;
      }
    }
    return is_negative_op(op) ? !any : any;
  }
  const std::string& actual = ctx.macro(attribute);
  const bool positive = value_op_matches(positive_op(op), *this, actual);
  return is_negative_op(op) ? !positive : positive;
}

Predicate Predicate::negated() const {
  Predicate out = *this;
  switch (op) {
    case Op::kEq:
      out.op = Op::kNeq;
      break;
    case Op::kNeq:
      out.op = Op::kEq;
      break;
    case Op::kWildcard:
      out.op = Op::kNotWildcard;
      break;
    case Op::kNotWildcard:
      out.op = Op::kWildcard;
      break;
    case Op::kIn:
      out.op = Op::kNotIn;
      break;
    case Op::kNotIn:
      out.op = Op::kIn;
      break;
    case Op::kQuery:
      out.op = Op::kNotQuery;
      break;
    case Op::kNotQuery:
      out.op = Op::kQuery;
      break;
  }
  return out;
}

namespace {

/// Quote a value when emitting it bare would not lex back to one word
/// token (spaces, commas, brackets, ...), or — for literal comparisons —
/// when it contains wildcard metacharacters that an unquoted parse would
/// reinterpret as a pattern. Quoted values parse back as literals, so
/// this is what makes str() round-trip safe ("parseable back" contract)
/// and usable as the predicate-sharing canonical key. Values containing
/// a double quote cannot round-trip (the profile lexer has no escapes).
std::string quoted_value(const std::string& v, bool wildcards_are_literal) {
  bool quote = v.empty();
  for (const char c : v) {
    const bool word = std::isalnum(static_cast<unsigned char>(c)) ||
                      c == '_' || c == '-' || c == '.' || c == ':' ||
                      c == '*' || c == '?';
    if (!word || (wildcards_are_literal && (c == '*' || c == '?'))) {
      quote = true;
      break;
    }
  }
  return quote ? "\"" + v + "\"" : v;
}

}  // namespace

std::string Predicate::str() const {
  switch (op) {
    case Op::kEq:
      return attribute + " = " + quoted_value(value, true);
    case Op::kNeq:
      return attribute + " != " + quoted_value(value, true);
    case Op::kWildcard:
      // Pattern metacharacters must stay unquoted to reparse as a
      // wildcard; patterns are parser-produced word tokens, so quoting
      // is only ever needed for programmatic patterns with odd chars.
      return attribute + " = " + quoted_value(value, false);
    case Op::kNotWildcard:
      return "NOT " + attribute + " = " + quoted_value(value, false);
    case Op::kIn:
    case Op::kNotIn: {
      std::string out =
          (op == Op::kNotIn ? "NOT " : "") + attribute + " IN [";
      const char* sep = "";
      for (const auto& v : values) {
        out += sep;
        out += quoted_value(v, true);
        sep = ", ";
      }
      return out + "]";
    }
    case Op::kQuery:
      return attribute + " ~ \"" + (query ? query->str() : "") + "\"";
    case Op::kNotQuery:
      return "NOT " + attribute + " ~ \"" + (query ? query->str() : "") +
             "\"";
  }
  return "";
}

std::string shared_predicate_key(const Predicate& pred) {
  if (!is_negative_op(pred.op)) return pred.str();
  return pred.negated().str();
}

}  // namespace gsalert::profiles
