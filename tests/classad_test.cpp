#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "condorg/classad/classad.h"
#include "condorg/util/rng.h"
#include "condorg/classad/parser.h"

namespace ca = condorg::classad;

namespace {

ca::Value ev(const std::string& text) {
  return ca::parse_expr(text)->evaluate();
}

std::string unparse_round_trip(const std::string& text) {
  return ca::parse_expr(text)->unparse();
}

}  // namespace

// ---------- values ----------

TEST(Value, TypesAndAccessors) {
  EXPECT_TRUE(ca::Value::undefined().is_undefined());
  EXPECT_TRUE(ca::Value::error().is_error());
  EXPECT_TRUE(ca::Value::boolean(true).as_bool());
  EXPECT_EQ(ca::Value::integer(-3).as_int(), -3);
  EXPECT_DOUBLE_EQ(ca::Value::real(2.5).as_real(), 2.5);
  EXPECT_EQ(ca::Value::string("x").as_string(), "x");
  const auto list = ca::Value::list({ca::Value::integer(1)});
  ASSERT_TRUE(list.is_list());
  EXPECT_EQ(list.as_list().size(), 1u);
}

TEST(Value, ToNumberCoercions) {
  double d = 0;
  EXPECT_TRUE(ca::Value::integer(4).to_number(d));
  EXPECT_DOUBLE_EQ(d, 4.0);
  EXPECT_TRUE(ca::Value::boolean(true).to_number(d));
  EXPECT_DOUBLE_EQ(d, 1.0);
  EXPECT_FALSE(ca::Value::string("4").to_number(d));
  EXPECT_FALSE(ca::Value::undefined().to_number(d));
}

TEST(Value, SameAsIsStructural) {
  EXPECT_TRUE(ca::Value::undefined().same_as(ca::Value::undefined()));
  EXPECT_FALSE(ca::Value::undefined().same_as(ca::Value::error()));
  EXPECT_FALSE(ca::Value::integer(1).same_as(ca::Value::real(1.0)));
  EXPECT_TRUE(ca::Value::string("A").same_as(ca::Value::string("A")));
  EXPECT_FALSE(ca::Value::string("A").same_as(ca::Value::string("a")));
}

TEST(Value, UnparseLiterals) {
  EXPECT_EQ(ca::Value::integer(7).unparse(), "7");
  EXPECT_EQ(ca::Value::real(2.0).unparse(), "2.0");
  EXPECT_EQ(ca::Value::boolean(false).unparse(), "false");
  EXPECT_EQ(ca::Value::string("a\"b").unparse(), "\"a\\\"b\"");
  EXPECT_EQ(ca::Value::undefined().unparse(), "undefined");
}

// ---------- lexer / parser ----------

TEST(Parser, Arithmetic) {
  EXPECT_EQ(ev("1 + 2 * 3").as_int(), 7);
  EXPECT_EQ(ev("(1 + 2) * 3").as_int(), 9);
  EXPECT_EQ(ev("10 % 3").as_int(), 1);
  EXPECT_EQ(ev("7 / 2").as_int(), 3);
  EXPECT_DOUBLE_EQ(ev("7.0 / 2").as_real(), 3.5);
  EXPECT_DOUBLE_EQ(ev("1e3 + 0.5").as_real(), 1000.5);
  EXPECT_EQ(ev("-4").as_int(), -4);
  EXPECT_EQ(ev("- -4").as_int(), 4);
}

TEST(Parser, DivisionByZeroIsError) {
  EXPECT_TRUE(ev("1 / 0").is_error());
  EXPECT_TRUE(ev("1 % 0").is_error());
  EXPECT_TRUE(ev("1.0 / 0.0").is_error());
}

TEST(Parser, Comparisons) {
  EXPECT_TRUE(ev("2 < 3").as_bool());
  EXPECT_TRUE(ev("3 <= 3").as_bool());
  EXPECT_FALSE(ev("3 > 3").as_bool());
  EXPECT_TRUE(ev("2.5 >= 2").as_bool());
  EXPECT_TRUE(ev("2 == 2.0").as_bool());
  EXPECT_TRUE(ev("2 != 3").as_bool());
}

TEST(Parser, StringComparisonIsCaseInsensitive) {
  EXPECT_TRUE(ev("\"LINUX\" == \"linux\"").as_bool());
  EXPECT_FALSE(ev("\"LINUX\" != \"linux\"").as_bool());
  EXPECT_TRUE(ev("\"abc\" < \"abd\"").as_bool());
  // strcmp is the case-sensitive escape hatch.
  EXPECT_EQ(ev("strcmp(\"LINUX\", \"linux\")").as_int(), -1);
  EXPECT_EQ(ev("stricmp(\"LINUX\", \"linux\")").as_int(), 0);
}

TEST(Parser, MixedTypeComparisonIsError) {
  EXPECT_TRUE(ev("\"abc\" < 3").is_error());
  EXPECT_TRUE(ev("true == \"true\"").is_error());
}

TEST(Parser, TernaryAndPrecedence) {
  EXPECT_EQ(ev("true ? 1 : 2").as_int(), 1);
  EXPECT_EQ(ev("false ? 1 : 2").as_int(), 2);
  EXPECT_EQ(ev("1 < 2 ? 10 + 1 : 20").as_int(), 11);
  EXPECT_TRUE(ev("undefined ? 1 : 2").is_undefined());
  EXPECT_TRUE(ev("3 ? 1 : 2").is_error());
}

TEST(Parser, BooleanKeywordsAnyCase) {
  EXPECT_TRUE(ev("TRUE").as_bool());
  EXPECT_FALSE(ev("False").as_bool());
  EXPECT_TRUE(ev("UNDEFINED").is_undefined());
  EXPECT_TRUE(ev("Error").is_error());
}

TEST(Parser, Lists) {
  const auto v = ev("{1, 2.5, \"x\"}");
  ASSERT_TRUE(v.is_list());
  EXPECT_EQ(v.as_list().size(), 3u);
  EXPECT_EQ(v.as_list()[0].as_int(), 1);
  EXPECT_TRUE(ev("member(2, {1, 2, 3})").as_bool());
  EXPECT_FALSE(ev("member(9, {1, 2, 3})").as_bool());
  EXPECT_EQ(ev("size({1, 2, 3})").as_int(), 3);
}

TEST(Parser, Comments) {
  EXPECT_EQ(ev("1 + // comment\n 2").as_int(), 3);
  EXPECT_EQ(ev("1 + # comment\n 2").as_int(), 3);
}

TEST(Parser, Errors) {
  EXPECT_THROW(ca::parse_expr("1 +"), ca::ParseError);
  EXPECT_THROW(ca::parse_expr("(1"), ca::ParseError);
  EXPECT_THROW(ca::parse_expr("1 2"), ca::ParseError);
  EXPECT_THROW(ca::parse_expr("\"unterminated"), ca::ParseError);
  EXPECT_THROW(ca::parse_expr("@"), ca::ParseError);
  EXPECT_THROW(ca::parse_expr(""), ca::ParseError);
}

TEST(Parser, UnparseRoundTrip) {
  // unparse() output must re-parse to an expression with the same value.
  for (const char* text :
       {"1 + 2 * 3", "(a < 4) && (b >= \"x\")", "my.Memory + target.Disk",
        "foo(1, \"two\", {3})", "x =?= undefined ? 0 : x",
        "!a || b != 2.5e2"}) {
    const std::string first = unparse_round_trip(text);
    const std::string second = ca::parse_expr(first)->unparse();
    EXPECT_EQ(first, second) << text;
  }
}

// ---------- three-valued logic (the matchmaking safety core) ----------

struct LogicCase {
  const char* expr;
  const char* expected;  // "true", "false", "undefined", "error"
};

// Without a printer gtest shows the raw pointer bytes, so the ctest names
// that gtest_discover_tests derives from the value change with every load
// address. Printing the case keeps the names stable and readable.
void PrintTo(const LogicCase& c, std::ostream* os) {
  *os << c.expr << " -> " << c.expected;
}

class ThreeValuedLogic : public ::testing::TestWithParam<LogicCase> {};

TEST_P(ThreeValuedLogic, Evaluates) {
  const auto& param = GetParam();
  const ca::Value v = ev(param.expr);
  const std::string expected = param.expected;
  if (expected == "true") {
    ASSERT_TRUE(v.is_bool()) << param.expr << " -> " << v.unparse();
    EXPECT_TRUE(v.as_bool()) << param.expr;
  } else if (expected == "false") {
    ASSERT_TRUE(v.is_bool()) << param.expr << " -> " << v.unparse();
    EXPECT_FALSE(v.as_bool()) << param.expr;
  } else if (expected == "undefined") {
    EXPECT_TRUE(v.is_undefined()) << param.expr << " -> " << v.unparse();
  } else {
    EXPECT_TRUE(v.is_error()) << param.expr << " -> " << v.unparse();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Absorption, ThreeValuedLogic,
    ::testing::Values(
        // FALSE absorbs everything in &&.
        LogicCase{"false && undefined", "false"},
        LogicCase{"undefined && false", "false"},
        LogicCase{"false && error", "false"},
        LogicCase{"false && (1/0 == 1)", "false"},
        // TRUE absorbs everything in ||.
        LogicCase{"true || undefined", "true"},
        LogicCase{"undefined || true", "true"},
        LogicCase{"true || error", "true"},
        // UNDEFINED propagates when not absorbed.
        LogicCase{"true && undefined", "undefined"},
        LogicCase{"undefined && true", "undefined"},
        LogicCase{"false || undefined", "undefined"},
        LogicCase{"undefined || undefined", "undefined"},
        // ERROR dominates UNDEFINED when not absorbed.
        LogicCase{"true && error", "error"},
        LogicCase{"error || false", "error"},
        LogicCase{"undefined && error", "error"},
        // NOT is strict.
        LogicCase{"!undefined", "undefined"},
        LogicCase{"!error", "error"},
        LogicCase{"!true", "false"}));

INSTANTIATE_TEST_SUITE_P(
    UndefinedPropagation, ThreeValuedLogic,
    ::testing::Values(
        LogicCase{"undefined + 1", "undefined"},
        LogicCase{"undefined < 3", "undefined"},
        LogicCase{"undefined == undefined", "undefined"},
        LogicCase{"NoSuchAttr == 5", "undefined"},
        LogicCase{"error + 1", "error"},
        // Meta comparison never yields undefined.
        LogicCase{"undefined =?= undefined", "true"},
        LogicCase{"undefined =?= 3", "false"},
        LogicCase{"undefined =!= undefined", "false"},
        LogicCase{"3 =?= 3", "true"},
        LogicCase{"3 =?= 3.0", "false"},   // structural: int != real
        LogicCase{"\"A\" =?= \"a\"", "false"},  // structural: case matters
        LogicCase{"\"A\" == \"a\"", "true"},
        LogicCase{"error =?= error", "true"}));

// ---------- ads & attribute resolution ----------

TEST(ClassAd, InsertEvalAndTypes) {
  ca::ClassAd ad;
  ad.insert_int("Cpus", 4);
  ad.insert_real("LoadAvg", 0.25);
  ad.insert_bool("IsLinux", true);
  ad.insert_string("Arch", "X86_64");
  ad.insert_expr("FreeCpus", "Cpus - 1");
  EXPECT_EQ(ad.eval_int("Cpus"), 4);
  EXPECT_DOUBLE_EQ(*ad.eval_real("LoadAvg"), 0.25);
  EXPECT_EQ(ad.eval_bool("IsLinux"), true);
  EXPECT_EQ(ad.eval_string("Arch"), "X86_64");
  EXPECT_EQ(ad.eval_int("FreeCpus"), 3);
  EXPECT_EQ(ad.eval_int("Missing"), std::nullopt);
  EXPECT_EQ(ad.size(), 5u);
}

TEST(ClassAd, NamesAreCaseInsensitive) {
  ca::ClassAd ad;
  ad.insert_int("Memory", 512);
  EXPECT_TRUE(ad.contains("MEMORY"));
  EXPECT_EQ(ad.eval_int("memory"), 512);
  ad.insert_int("MEMORY", 1024);  // overwrites, keeps canonical name
  EXPECT_EQ(ad.eval_int("Memory"), 1024);
  EXPECT_EQ(ad.size(), 1u);
  EXPECT_EQ(ad.names()[0], "Memory");
}

TEST(ClassAd, ChainedAttributeReferences) {
  ca::ClassAd ad = ca::parse_ad("[a = b + 1; b = c * 2; c = 10]");
  EXPECT_EQ(ad.eval_int("a"), 21);
}

TEST(ClassAd, CyclicReferencesYieldError) {
  ca::ClassAd ad = ca::parse_ad("[a = b; b = a]");
  EXPECT_TRUE(ad.eval("a").is_error());
  ca::ClassAd self = ca::parse_ad("[x = x + 1]");
  EXPECT_TRUE(self.eval("x").is_error());
}

TEST(ClassAd, ParseBracketedAndSubmitStyle) {
  const ca::ClassAd a = ca::parse_ad("[Cpus = 4; Arch = \"LINUX\"]");
  EXPECT_EQ(a.eval_int("Cpus"), 4);
  const ca::ClassAd b = ca::parse_ad("Cpus = 4\nArch = \"LINUX\"\n");
  EXPECT_EQ(b.eval_string("Arch"), "LINUX");
  EXPECT_THROW(ca::parse_ad("[Cpus 4]"), ca::ParseError);
}

TEST(ClassAd, UnparseReparse) {
  ca::ClassAd ad = ca::parse_ad(
      "[Requirements = other.Memory > 100 && Arch == \"X86_64\"; Rank = "
      "Kflops; Arch = \"X86_64\"]");
  const ca::ClassAd again = ca::parse_ad(ad.unparse());
  EXPECT_EQ(again.size(), ad.size());
  EXPECT_EQ(again.unparse(), ad.unparse());
}

TEST(ClassAd, UpdateMerges) {
  ca::ClassAd base = ca::parse_ad("[a = 1; b = 2]");
  base.update(ca::parse_ad("[b = 20; c = 30]"));
  EXPECT_EQ(base.eval_int("a"), 1);
  EXPECT_EQ(base.eval_int("b"), 20);
  EXPECT_EQ(base.eval_int("c"), 30);
}

// ---------- MY / TARGET scoping ----------

TEST(Scoping, MyAndTargetResolve) {
  const ca::ClassAd job = ca::parse_ad("[Memory = 64; Wants = 128]");
  const ca::ClassAd machine = ca::parse_ad("[Memory = 256]");
  const auto expr = ca::parse_expr("MY.Wants <= TARGET.Memory");
  EXPECT_TRUE(expr->evaluate(&job, &machine).as_bool());
  const auto expr2 = ca::parse_expr("other.Memory > MY.Memory");
  EXPECT_TRUE(expr2->evaluate(&job, &machine).as_bool());
}

TEST(Scoping, UnqualifiedPrefersMyThenTarget) {
  const ca::ClassAd job = ca::parse_ad("[Memory = 64]");
  const ca::ClassAd machine = ca::parse_ad("[Memory = 256; Disk = 1000]");
  // Memory resolves in the job ad (my); Disk falls through to target.
  EXPECT_EQ(ca::parse_expr("Memory")->evaluate(&job, &machine).as_int(), 64);
  EXPECT_EQ(ca::parse_expr("Disk")->evaluate(&job, &machine).as_int(), 1000);
  EXPECT_TRUE(ca::parse_expr("Nowhere")
                  ->evaluate(&job, &machine)
                  .is_undefined());
}

TEST(Scoping, TargetAttributeEvaluatesInItsOwnScope) {
  // target.FreeCpus references target's own Cpus attribute.
  const ca::ClassAd job = ca::parse_ad("[Cpus = 1]");
  const ca::ClassAd machine = ca::parse_ad("[Cpus = 8; FreeCpus = Cpus - 2]");
  EXPECT_EQ(
      ca::parse_expr("TARGET.FreeCpus")->evaluate(&job, &machine).as_int(), 6);
}

TEST(Scoping, MissingTargetIsUndefined) {
  const ca::ClassAd job = ca::parse_ad("[Memory = 64]");
  EXPECT_TRUE(
      ca::parse_expr("TARGET.Memory")->evaluate(&job, nullptr).is_undefined());
}

// ---------- matchmaking ----------

TEST(Match, SymmetricRequirements) {
  const ca::ClassAd job = ca::parse_ad(
      "[Type = \"Job\"; ImageSize = 50; Requirements = other.Memory >= "
      "ImageSize && other.Arch == \"X86_64\"]");
  const ca::ClassAd machine = ca::parse_ad(
      "[Type = \"Machine\"; Memory = 256; Arch = \"X86_64\"; Requirements = "
      "other.ImageSize < Memory]");
  EXPECT_TRUE(ca::symmetric_match(job, machine));
  EXPECT_TRUE(ca::symmetric_match(machine, job));

  const ca::ClassAd small = ca::parse_ad(
      "[Type = \"Machine\"; Memory = 32; Arch = \"X86_64\"; Requirements = "
      "true]");
  EXPECT_FALSE(ca::symmetric_match(job, small));
}

TEST(Match, UndefinedRequirementsDoNotMatch) {
  // Machine requires an attribute the job doesn't define: Requirements
  // evaluates to UNDEFINED, which must NOT count as a match.
  const ca::ClassAd job = ca::parse_ad("[X = 1]");
  const ca::ClassAd machine =
      ca::parse_ad("[Requirements = other.SecurityClearance == \"top\"]");
  EXPECT_FALSE(ca::symmetric_match(job, machine));
}

TEST(Match, MissingRequirementsMatchesAnything) {
  const ca::ClassAd a = ca::parse_ad("[x = 1]");
  const ca::ClassAd b = ca::parse_ad("[y = 2]");
  EXPECT_TRUE(ca::symmetric_match(a, b));
}

TEST(Match, RankOrdersCandidates) {
  const ca::ClassAd job =
      ca::parse_ad("[Rank = other.Kflops; Requirements = true]");
  const ca::ClassAd slow = ca::parse_ad("[Kflops = 1000]");
  const ca::ClassAd fast = ca::parse_ad("[Kflops = 9000]");
  EXPECT_GT(ca::eval_rank(job, fast), ca::eval_rank(job, slow));
  const ca::ClassAd no_rank = ca::parse_ad("[x = 1]");
  EXPECT_DOUBLE_EQ(ca::eval_rank(no_rank, fast), 0.0);
  const ca::ClassAd bad_rank = ca::parse_ad("[Rank = other.Nowhere]");
  EXPECT_DOUBLE_EQ(ca::eval_rank(bad_rank, slow), 0.0);
}

// ---------- builtin functions ----------

TEST(Builtins, Strings) {
  EXPECT_EQ(ev("toUpper(\"abc\")").as_string(), "ABC");
  EXPECT_EQ(ev("toLower(\"ABC\")").as_string(), "abc");
  EXPECT_EQ(ev("size(\"hello\")").as_int(), 5);
  EXPECT_EQ(ev("substr(\"hello\", 1, 3)").as_string(), "ell");
  EXPECT_EQ(ev("substr(\"hello\", -2)").as_string(), "lo");
  EXPECT_EQ(ev("substr(\"hello\", 99)").as_string(), "");
  EXPECT_EQ(ev("strcat(\"a\", 1, \"-\", 2.5)").as_string(), "a1-2.5");
}

TEST(Builtins, StringLists) {
  EXPECT_TRUE(ev("stringListMember(\"b\", \"a, b, c\")").as_bool());
  EXPECT_FALSE(ev("stringListMember(\"B\", \"a, b, c\")").as_bool());
  EXPECT_TRUE(ev("stringListIMember(\"B\", \"a, b, c\")").as_bool());
  EXPECT_EQ(ev("stringListSize(\"a, b, c\")").as_int(), 3);
  EXPECT_EQ(ev("stringListSize(\"a:b\", \":\")").as_int(), 2);
}

TEST(Builtins, Numeric) {
  EXPECT_EQ(ev("floor(2.9)").as_int(), 2);
  EXPECT_EQ(ev("ceiling(2.1)").as_int(), 3);
  EXPECT_EQ(ev("round(2.5)").as_int(), 3);
  EXPECT_EQ(ev("abs(-5)").as_int(), 5);
  EXPECT_DOUBLE_EQ(ev("pow(2, 10)").as_real(), 1024.0);
  EXPECT_EQ(ev("min(3, 1, 2)").as_int(), 1);
  EXPECT_EQ(ev("max(3, 1, 2)").as_int(), 3);
  EXPECT_DOUBLE_EQ(ev("max(3, 1.5)").as_real(), 3.0);
}

TEST(Builtins, Conversions) {
  EXPECT_EQ(ev("int(2.9)").as_int(), 2);
  EXPECT_EQ(ev("int(\"42\")").as_int(), 42);
  EXPECT_TRUE(ev("int(\"nope\")").is_error());
  EXPECT_DOUBLE_EQ(ev("real(2)").as_real(), 2.0);
  EXPECT_EQ(ev("string(42)").as_string(), "42");
  EXPECT_EQ(ev("string(true)").as_string(), "true");
}

TEST(Builtins, Introspection) {
  EXPECT_TRUE(ev("isUndefined(undefined)").as_bool());
  EXPECT_FALSE(ev("isUndefined(1)").as_bool());
  EXPECT_TRUE(ev("isError(1/0)").as_bool());
  EXPECT_TRUE(ev("isString(\"x\")").as_bool());
  EXPECT_TRUE(ev("isInteger(1)").as_bool());
  EXPECT_TRUE(ev("isReal(1.0)").as_bool());
  EXPECT_TRUE(ev("isBoolean(true)").as_bool());
}

TEST(Builtins, IfThenElse) {
  EXPECT_EQ(ev("ifThenElse(true, 1, 2)").as_int(), 1);
  EXPECT_EQ(ev("ifThenElse(false, 1, 2)").as_int(), 2);
  EXPECT_TRUE(ev("ifThenElse(undefined, 1, 2)").is_undefined());
}

TEST(Builtins, Regexp) {
  EXPECT_TRUE(ev("regexp(\"^x86\", \"x86_64\")").as_bool());
  EXPECT_FALSE(ev("regexp(\"^X86\", \"x86_64\")").as_bool());
  EXPECT_TRUE(ev("regexp(\"^X86\", \"x86_64\", \"i\")").as_bool());
  EXPECT_TRUE(ev("regexp(\"[\", \"x\")").is_error());
}

TEST(Builtins, UnknownFunctionIsError) {
  EXPECT_TRUE(ev("noSuchFunction(1)").is_error());
}

TEST(Builtins, UndefinedArgumentsPropagate) {
  EXPECT_TRUE(ev("toUpper(undefined)").is_undefined());
  EXPECT_TRUE(ev("floor(undefined)").is_undefined());
  EXPECT_TRUE(ev("floor(error)").is_error());
}

TEST(Builtins, RegistryNonEmpty) {
  EXPECT_GE(ca::builtin_names().size(), 25u);
}

// ---------- realistic grid ads (paper-flavoured integration) ----------

TEST(Integration, GramResourceBrokering) {
  // A job ad of the kind the Condor-G broker would construct from MDS data.
  const ca::ClassAd job = ca::parse_ad(R"(
    [
      JobUniverse = 9;  // grid
      Owner = "jfrey";
      ImageSize = 128;
      WantsArch = "X86_64";
      Requirements = other.FreeCpus > 0 &&
                     other.Memory >= MY.ImageSize &&
                     stringListMember(MY.WantsArch, other.ArchList);
      Rank = other.FreeCpus * 10 - other.QueueLength;
    ]
  )");
  const ca::ClassAd site_a = ca::parse_ad(R"(
    [ Name = "pbs.anl.gov"; FreeCpus = 12; Memory = 512;
      ArchList = "X86_64, IA64"; QueueLength = 4; ]
  )");
  const ca::ClassAd site_b = ca::parse_ad(R"(
    [ Name = "lsf.ncsa.edu"; FreeCpus = 2; Memory = 2048;
      ArchList = "POWER3"; QueueLength = 0; ]
  )");
  const ca::ClassAd site_c = ca::parse_ad(R"(
    [ Name = "condor.wisc.edu"; FreeCpus = 250; Memory = 256;
      ArchList = "X86_64"; QueueLength = 90; ]
  )");
  EXPECT_TRUE(ca::symmetric_match(job, site_a));
  EXPECT_FALSE(ca::symmetric_match(job, site_b));  // wrong arch
  EXPECT_TRUE(ca::symmetric_match(job, site_c));
  // Rank must prefer the big idle pool.
  EXPECT_GT(ca::eval_rank(job, site_c), ca::eval_rank(job, site_a));
}

// ---------- randomized round-trip / evaluation-stability fuzz ----------

namespace {

/// Generate a random well-formed ClassAd expression of bounded depth.
std::string random_expr(condorg::util::Rng& rng, int depth) {
  if (depth <= 0 || rng.chance(0.3)) {
    switch (rng.below(6)) {
      case 0: return std::to_string(rng.range(-100, 100));
      case 1: return ca::Value::real(rng.uniform(-10, 10)).unparse();
      case 2: return rng.chance(0.5) ? "true" : "false";
      case 3: return "undefined";
      case 4: return "\"s" + std::to_string(rng.below(10)) + "\"";
      default: return "Attr" + std::to_string(rng.below(4));
    }
  }
  static const char* kBinOps[] = {"+", "-", "*", "/", "<", "<=", ">",
                                  ">=", "==", "!=", "=?=", "=!=", "&&",
                                  "||"};
  switch (rng.below(4)) {
    case 0:
      return "(" + random_expr(rng, depth - 1) + " " +
             kBinOps[rng.below(14)] + " " + random_expr(rng, depth - 1) +
             ")";
    case 1:
      return "(-" + random_expr(rng, depth - 1) + ")";
    case 2:
      return "(" + random_expr(rng, depth - 1) + " ? " +
             random_expr(rng, depth - 1) + " : " +
             random_expr(rng, depth - 1) + ")";
    default:
      return "ifThenElse(isUndefined(" + random_expr(rng, depth - 1) +
             "), " + random_expr(rng, depth - 1) + ", " +
             random_expr(rng, depth - 1) + ")";
  }
}

}  // namespace

class ClassAdFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ClassAdFuzz, UnparseReparseIsStableAndValuePreserving) {
  condorg::util::Rng rng(90000 + GetParam());
  const ca::ClassAd env = ca::parse_ad(
      "[Attr0 = 3; Attr1 = \"s1\"; Attr2 = true]");  // Attr3 stays undefined
  for (int trial = 0; trial < 60; ++trial) {
    const std::string text = random_expr(rng, 4);
    const ca::ExprPtr first = ca::parse_expr(text);
    const std::string printed = first->unparse();
    const ca::ExprPtr second = ca::parse_expr(printed);
    // Fixpoint: printing the reparsed tree yields the same text.
    EXPECT_EQ(second->unparse(), printed) << text;
    // Value equivalence under an environment (structural: =?= semantics).
    const ca::Value v1 = first->evaluate(&env, nullptr);
    const ca::Value v2 = second->evaluate(&env, nullptr);
    EXPECT_TRUE(v1.same_as(v2)) << text << " -> " << v1.unparse() << " vs "
                                << v2.unparse();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassAdFuzz, ::testing::Range(0, 8));
