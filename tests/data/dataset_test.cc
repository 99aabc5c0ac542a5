#include "data/dataset.h"

#include <gtest/gtest.h>

#include "testing/test_util.h"

namespace fairhms {
namespace {

TEST(DatasetTest, BasicConstruction) {
  Dataset data(3);
  EXPECT_EQ(data.dim(), 3);
  EXPECT_EQ(data.size(), 0u);
  data.AddPoint({0.1, 0.2, 0.3});
  ASSERT_EQ(data.size(), 1u);
  EXPECT_DOUBLE_EQ(data.at(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(data.point(0)[2], 0.3);
}

TEST(DatasetTest, DefaultAttributeNames) {
  Dataset data(2);
  EXPECT_EQ(data.attr_names()[0], "attr0");
  EXPECT_EQ(data.attr_names()[1], "attr1");
}

TEST(DatasetTest, NamedAttributes) {
  Dataset data(std::vector<std::string>{"lsat", "gpa"});
  EXPECT_EQ(data.dim(), 2);
  EXPECT_EQ(data.attr_names()[0], "lsat");
}

TEST(DatasetTest, CategoricalColumns) {
  Dataset data(2);
  data.AddPoint({1, 2});  // Pre-existing row gets code 0.
  const int col = data.AddCategoricalColumn("gender", {"F", "M"});
  EXPECT_EQ(col, 0);
  data.AddRow({3, 4}, {1});
  ASSERT_EQ(data.num_categorical(), 1);
  EXPECT_EQ(data.categorical(0).codes[0], 0);
  EXPECT_EQ(data.categorical(0).codes[1], 1);
  EXPECT_EQ(data.categorical(0).labels[1], "M");
}

TEST(DatasetTest, FindCategorical) {
  Dataset data(2);
  data.AddCategoricalColumn("a", {"x"});
  data.AddCategoricalColumn("b", {"y"});
  auto found = data.FindCategorical("b");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), 1);
  EXPECT_EQ(data.FindCategorical("c").status().code(), StatusCode::kNotFound);
}

TEST(DatasetTest, ValidateRejectsNegativeValues) {
  Dataset data(2);
  data.AddPoint({1.0, -0.5});
  EXPECT_EQ(data.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetTest, ValidateRejectsNonFinite) {
  Dataset data(1);
  data.AddPoint({std::numeric_limits<double>::infinity()});
  EXPECT_EQ(data.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetTest, ValidateAcceptsCleanData) {
  Dataset data(2);
  data.AddPoint({0.0, 1.0});
  data.AddPoint({0.5, 0.5});
  EXPECT_TRUE(data.Validate().ok());
}

TEST(DatasetTest, NormalizedMinMaxScalesToUnit) {
  Dataset data(2);
  data.AddPoint({10, 100});
  data.AddPoint({20, 300});
  data.AddPoint({15, 200});
  const Dataset norm = data.NormalizedMinMax();
  EXPECT_DOUBLE_EQ(norm.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(norm.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(norm.at(2, 0), 0.5);
  EXPECT_DOUBLE_EQ(norm.at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(norm.at(0, 1), 0.0);
}

TEST(DatasetTest, NormalizedMinMaxConstantColumnBecomesOne) {
  Dataset data(2);
  data.AddPoint({5, 1});
  data.AddPoint({5, 2});
  const Dataset norm = data.NormalizedMinMax();
  EXPECT_DOUBLE_EQ(norm.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(norm.at(1, 0), 1.0);
}

TEST(DatasetTest, ScaledByMaxDividesByColumnMax) {
  Dataset data(2);
  data.AddPoint({170, 2.0});
  data.AddPoint({85, 4.0});
  const Dataset s = data.ScaledByMax();
  EXPECT_DOUBLE_EQ(s.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(s.at(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(s.at(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(s.at(1, 1), 1.0);
}

TEST(DatasetTest, ScaledByMaxZeroColumn) {
  Dataset data(1);
  data.AddPoint({0});
  data.AddPoint({0});
  const Dataset s = data.ScaledByMax();
  EXPECT_DOUBLE_EQ(s.at(0, 0), 0.0);
}

TEST(DatasetTest, ReserveDoesNotChangeSize) {
  Dataset data(2);
  data.Reserve(100);
  EXPECT_EQ(data.size(), 0u);
}

}  // namespace
}  // namespace fairhms
