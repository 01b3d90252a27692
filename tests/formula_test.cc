#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "formula/engine.h"
#include "formula/formula_parser.h"
#include "formula/functions.h"
#include "sheet/workbook.h"

namespace dataspread::formula {
namespace {

FExprPtr ParseOrDie(const std::string& text) {
  auto r = ParseFormula(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : nullptr;
}

TEST(FormulaParserTest, Literals) {
  EXPECT_EQ(ParseOrDie("=42")->literal, Value::Int(42));
  EXPECT_EQ(ParseOrDie("=4.5")->literal, Value::Real(4.5));
  EXPECT_EQ(ParseOrDie("=\"hi\"")->literal, Value::Text("hi"));
  EXPECT_EQ(ParseOrDie("=TRUE")->literal, Value::Bool(true));
  EXPECT_EQ(ParseOrDie("='sql text'")->literal, Value::Text("sql text"));
}

TEST(FormulaParserTest, CellAndRangeRefs) {
  FExprPtr cell = ParseOrDie("=$B$2");
  ASSERT_EQ(cell->kind, FKind::kCellRef);
  EXPECT_EQ(cell->cell.row, 1);
  EXPECT_EQ(cell->cell.col, 1);
  EXPECT_TRUE(cell->cell.abs_row);
  FExprPtr range = ParseOrDie("=SUM(A1:B10)");
  ASSERT_EQ(range->args[0]->kind, FKind::kRange);
  EXPECT_EQ(range->args[0]->range.num_rows(), 10);
  FExprPtr sheet_ref = ParseOrDie("=Data!C3");
  EXPECT_EQ(sheet_ref->cell.sheet, "Data");
  FExprPtr sheet_range = ParseOrDie("=SUM(Data!A1:A5)");
  EXPECT_EQ(sheet_range->args[0]->range.sheet, "Data");
}

TEST(FormulaParserTest, OperatorPrecedence) {
  // ToText emits minimal parentheses; each output re-parses identically.
  EXPECT_EQ(ParseOrDie("=1+2*3")->ToText(), "1+2*3");
  EXPECT_EQ(ParseOrDie("=(1+2)*3")->ToText(), "(1+2)*3");
  EXPECT_EQ(ParseOrDie("=2^3^2")->ToText(), "2^3^2");       // right assoc
  EXPECT_EQ(ParseOrDie("=(2^3)^2")->ToText(), "(2^3)^2");
  EXPECT_EQ(ParseOrDie("=1-(2-3)")->ToText(), "1-(2-3)");
  EXPECT_EQ(ParseOrDie("=1-2-3")->ToText(), "1-2-3");
  EXPECT_EQ(ParseOrDie("=1+2=3")->ToText(), "1+2=3");
  EXPECT_EQ(ParseOrDie("=\"a\"&1+2")->ToText(), "\"a\"&1+2");
  EXPECT_EQ(ParseOrDie("=-2^2")->ToText(), "-2^2");  // unary binds tighter
  EXPECT_EQ(ParseOrDie("=-(2+1)")->ToText(), "-(2+1)");
}

TEST(FormulaParserTest, FunctionsNested) {
  FExprPtr f = ParseOrDie("=IF(SUM(A1:A3)>10, MAX(B1,B2), 0)");
  EXPECT_EQ(f->kind, FKind::kFunction);
  EXPECT_EQ(f->op, "IF");
  ASSERT_EQ(f->args.size(), 3u);
}

TEST(FormulaParserTest, HybridDetection) {
  EXPECT_TRUE(IsHybridFormula(*ParseOrDie("=DBSQL(\"SELECT 1\")")));
  EXPECT_TRUE(IsHybridFormula(*ParseOrDie("=DBTABLE(\"movies\")")));
  EXPECT_FALSE(IsHybridFormula(*ParseOrDie("=SUM(A1:A2)")));
}

TEST(FormulaParserTest, Errors) {
  EXPECT_FALSE(ParseFormula("1+2").ok());     // missing '='
  EXPECT_FALSE(ParseFormula("=1+").ok());
  EXPECT_FALSE(ParseFormula("=SUM(A1").ok());
  EXPECT_FALSE(ParseFormula("=\"unterminated").ok());
  EXPECT_FALSE(ParseFormula("=A1:").ok());
}

TEST(FormulaParserTest, ToTextRoundTrips) {
  for (const char* text :
       {"=(A1+B2)", "=SUM($A$1:B10)", "=IF((A1>0),\"yes\",\"no\")",
        "=Data!C3", "=((1+2)*3)"}) {
    FExprPtr ast = ParseOrDie(text);
    FExprPtr again = ParseOrDie("=" + ast->ToText());
    EXPECT_EQ(again->ToText(), ast->ToText()) << text;
  }
}

// ---------------------------------------------------------------------------
// Function library
// ---------------------------------------------------------------------------

FArg Range(std::vector<Value> values, int64_t rows, int64_t cols) {
  FArg a;
  a.is_range = true;
  a.rows = rows;
  a.cols = cols;
  a.grid = std::move(values);
  return a;
}

TEST(FunctionsTest, CoerceToNumber) {
  EXPECT_EQ(CoerceToNumber(Value::Null()), Value::Real(0.0));
  EXPECT_EQ(CoerceToNumber(Value::Bool(true)), Value::Real(1.0));
  EXPECT_EQ(CoerceToNumber(Value::Text("2.5")), Value::Real(2.5));
  EXPECT_TRUE(CoerceToNumber(Value::Text("abc")).is_error());
}

TEST(FunctionsTest, SumSkipsTextInRangesButCoercesScalars) {
  std::vector<FArg> args;
  args.push_back(Range({Value::Int(1), Value::Text("x"), Value::Real(2.5),
                        Value::Null()},
                       4, 1));
  args.push_back(FArg::Scalar(Value::Text("10")));
  EXPECT_EQ(CallBuiltin("SUM", args), Value::Real(13.5));
}

TEST(FunctionsTest, AverageMinMaxCountMedian) {
  std::vector<FArg> args;
  args.push_back(Range({Value::Int(4), Value::Int(1), Value::Int(7),
                        Value::Text("skip")},
                       4, 1));
  EXPECT_EQ(CallBuiltin("AVERAGE", args), Value::Real(4.0));
  EXPECT_EQ(CallBuiltin("MIN", args), Value::Real(1.0));
  EXPECT_EQ(CallBuiltin("MAX", args), Value::Real(7.0));
  EXPECT_EQ(CallBuiltin("COUNT", args), Value::Int(3));
  EXPECT_EQ(CallBuiltin("COUNTA", args), Value::Int(4));
  EXPECT_EQ(CallBuiltin("MEDIAN", args), Value::Real(4.0));
}

TEST(FunctionsTest, AverageOfNothingIsDivZero) {
  std::vector<FArg> args;
  args.push_back(Range({Value::Null()}, 1, 1));
  EXPECT_EQ(CallBuiltin("AVERAGE", args), Value::Error("#DIV/0!"));
}

TEST(FunctionsTest, ErrorsPropagateThroughAggregates) {
  std::vector<FArg> args;
  args.push_back(Range({Value::Int(1), Value::Error("#REF!")}, 2, 1));
  EXPECT_EQ(CallBuiltin("SUM", args), Value::Error("#REF!"));
}

TEST(FunctionsTest, IfAndOrNot) {
  std::vector<FArg> t{FArg::Scalar(Value::Bool(true)),
                      FArg::Scalar(Value::Text("yes")),
                      FArg::Scalar(Value::Text("no"))};
  EXPECT_EQ(CallBuiltin("IF", t), Value::Text("yes"));
  std::vector<FArg> f{FArg::Scalar(Value::Int(0)),
                      FArg::Scalar(Value::Text("yes"))};
  EXPECT_EQ(CallBuiltin("IF", f), Value::Bool(false));  // no else branch
  std::vector<FArg> ao{FArg::Scalar(Value::Bool(true)),
                       FArg::Scalar(Value::Int(0))};
  EXPECT_EQ(CallBuiltin("AND", ao), Value::Bool(false));
  EXPECT_EQ(CallBuiltin("OR", ao), Value::Bool(true));
  std::vector<FArg> n{FArg::Scalar(Value::Bool(false))};
  EXPECT_EQ(CallBuiltin("NOT", n), Value::Bool(true));
}

TEST(FunctionsTest, MathAndText) {
  std::vector<FArg> mod{FArg::Scalar(Value::Int(-7)), FArg::Scalar(Value::Int(3))};
  EXPECT_EQ(CallBuiltin("MOD", mod), Value::Real(2.0));  // Excel convention
  std::vector<FArg> sqrt_neg{FArg::Scalar(Value::Int(-1))};
  EXPECT_EQ(CallBuiltin("SQRT", sqrt_neg), Value::Error("#NUM!"));
  std::vector<FArg> len{FArg::Scalar(Value::Text("abc"))};
  EXPECT_EQ(CallBuiltin("LEN", len), Value::Int(3));
  std::vector<FArg> cc{FArg::Scalar(Value::Text("a")),
                       FArg::Scalar(Value::Int(1)),
                       FArg::Scalar(Value::Null())};
  EXPECT_EQ(CallBuiltin("CONCAT", cc), Value::Text("a1"));
}

TEST(FunctionsTest, IfErrorAndIsBlank) {
  std::vector<FArg> ie{FArg::Scalar(Value::Error("#DIV/0!")),
                       FArg::Scalar(Value::Int(0))};
  EXPECT_EQ(CallBuiltin("IFERROR", ie), Value::Int(0));
  std::vector<FArg> ok{FArg::Scalar(Value::Int(5)),
                       FArg::Scalar(Value::Int(0))};
  EXPECT_EQ(CallBuiltin("IFERROR", ok), Value::Int(5));
  std::vector<FArg> blank{FArg::Scalar(Value::Null())};
  EXPECT_EQ(CallBuiltin("ISBLANK", blank), Value::Bool(true));
}

TEST(FunctionsTest, Vlookup) {
  // Table: key | name
  FArg table = Range({Value::Int(1), Value::Text("ann"),    //
                      Value::Int(2), Value::Text("bob"),    //
                      Value::Int(3), Value::Text("cat")},
                     3, 2);
  std::vector<FArg> args{FArg::Scalar(Value::Int(2)), table,
                         FArg::Scalar(Value::Int(2))};
  EXPECT_EQ(CallBuiltin("VLOOKUP", args), Value::Text("bob"));
  std::vector<FArg> missing{FArg::Scalar(Value::Int(9)), table,
                            FArg::Scalar(Value::Int(2))};
  EXPECT_EQ(CallBuiltin("VLOOKUP", missing), Value::Error("#N/A"));
  // Approximate mode: last value <= key.
  std::vector<FArg> approx{FArg::Scalar(Value::Real(2.7)), table,
                           FArg::Scalar(Value::Int(2)),
                           FArg::Scalar(Value::Bool(true))};
  EXPECT_EQ(CallBuiltin("VLOOKUP", approx), Value::Text("bob"));
}

TEST(FunctionsTest, SumifCountif) {
  FArg scores = Range({Value::Int(95), Value::Int(80), Value::Int(92),
                       Value::Int(60)},
                      4, 1);
  std::vector<FArg> count{scores, FArg::Scalar(Value::Text(">90"))};
  EXPECT_EQ(CallBuiltin("COUNTIF", count), Value::Int(2));
  std::vector<FArg> sum{scores, FArg::Scalar(Value::Text(">90"))};
  EXPECT_EQ(CallBuiltin("SUMIF", sum), Value::Real(187.0));
  // With a separate sum range.
  FArg bonus = Range({Value::Int(1), Value::Int(2), Value::Int(3),
                      Value::Int(4)},
                     4, 1);
  std::vector<FArg> sum2{scores, FArg::Scalar(Value::Text(">90")), bonus};
  EXPECT_EQ(CallBuiltin("SUMIF", sum2), Value::Real(4.0));
  // Equality criteria without an operator.
  std::vector<FArg> eq{scores, FArg::Scalar(Value::Int(80))};
  EXPECT_EQ(CallBuiltin("COUNTIF", eq), Value::Int(1));
}

TEST(FunctionsTest, UnknownFunctionIsNameError) {
  std::vector<FArg> none;
  EXPECT_EQ(CallBuiltin("FROBNICATE", none), Value::Error("#NAME?"));
  EXPECT_FALSE(IsBuiltinFunction("DBSQL"));  // hybrid, not built-in
  EXPECT_TRUE(IsBuiltinFunction("SUM"));
}

// INTEGER + - * and unary minus wrap in two's complement, as SQL
// expressions do, instead of overflowing as signed arithmetic.
TEST(FormulaEngineTest, IntegerArithmeticWrapsAtInt64Min) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Workbook workbook;
  Sheet* sheet = workbook.AddSheet("S").ValueOrDie();
  FormulaEngine engine(&workbook);
  engine.AttachSheet(sheet);
  ASSERT_TRUE(sheet->SetValue(0, 0, Value::Int(kMin)).ok());  // A1
  ASSERT_TRUE(sheet->SetFormula(0, 1, "=-A1").ok());
  ASSERT_TRUE(sheet->SetFormula(0, 2, "=A1-1").ok());
  ASSERT_TRUE(sheet->SetFormula(0, 3, "=A1*2").ok());
  ASSERT_TRUE(sheet->SetFormula(0, 4, "=A1+(-1)").ok());
  ASSERT_TRUE(engine.RecalcDirty().ok());
  EXPECT_EQ(sheet->GetValue(0, 1), Value::Int(kMin));
  EXPECT_EQ(sheet->GetValue(0, 2), Value::Int(kMax));
  EXPECT_EQ(sheet->GetValue(0, 3), Value::Int(0));
  EXPECT_EQ(sheet->GetValue(0, 4), Value::Int(kMax));
}

}  // namespace
}  // namespace dataspread::formula
