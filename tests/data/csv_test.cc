#include "data/csv.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "testing/test_util.h"

namespace fairhms {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::UniqueTempPath("fairhms_csv_test") + ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
};

TEST_F(CsvTest, ReadsNumericAndCategorical) {
  WriteFile("lsat,gpa,gender\n160,3.5,F\n170,3.1,M\n155,3.9,F\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"lsat", "gpa"};
  opts.categorical_columns = {"gender"};
  auto data = ReadCsv(path_, opts);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->size(), 3u);
  EXPECT_EQ(data->dim(), 2);
  EXPECT_DOUBLE_EQ(data->at(1, 0), 170.0);
  ASSERT_EQ(data->num_categorical(), 1);
  EXPECT_EQ(data->categorical(0).labels.size(), 2u);
  EXPECT_EQ(data->categorical(0).codes[0], data->categorical(0).codes[2]);
}

TEST_F(CsvTest, ColumnOrderFollowsRequest) {
  WriteFile("a,b\n1,2\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"b", "a"};
  auto data = ReadCsv(path_, opts);
  ASSERT_TRUE(data.ok());
  EXPECT_DOUBLE_EQ(data->at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(data->at(0, 1), 1.0);
}

TEST_F(CsvTest, MissingColumnFails) {
  WriteFile("a,b\n1,2\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"zzz"};
  EXPECT_EQ(ReadCsv(path_, opts).status().code(), StatusCode::kNotFound);
}

TEST_F(CsvTest, BadNumericCellFailsByDefault) {
  WriteFile("a\n1\nnope\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"a"};
  EXPECT_EQ(ReadCsv(path_, opts).status().code(), StatusCode::kIOError);
}

TEST_F(CsvTest, SkipBadRowsMode) {
  WriteFile("a\n1\nnope\n3\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"a"};
  opts.skip_bad_rows = true;
  auto data = ReadCsv(path_, opts);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 2u);
}

TEST_F(CsvTest, EmptyNumericColumnsRejected) {
  WriteFile("a\n1\n");
  EXPECT_EQ(ReadCsv(path_, CsvReadOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, MissingFileFails) {
  CsvReadOptions opts;
  opts.numeric_columns = {"a"};
  EXPECT_EQ(ReadCsv("/nonexistent/file.csv", opts).status().code(),
            StatusCode::kIOError);
}

TEST_F(CsvTest, BlankLinesSkipped) {
  WriteFile("a\n1\n\n2\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"a"};
  auto data = ReadCsv(path_, opts);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 2u);
}

TEST_F(CsvTest, RoundTrip) {
  Dataset data(std::vector<std::string>{"x", "y"});
  data.AddCategoricalColumn("grp", {"one", "two"});
  data.AddRow({0.25, 1.5}, {0});
  data.AddRow({0.75, 2.5}, {1});
  ASSERT_TRUE(WriteCsv(data, path_).ok());

  CsvReadOptions opts;
  opts.numeric_columns = {"x", "y"};
  opts.categorical_columns = {"grp"};
  auto back = ReadCsv(path_, opts);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_DOUBLE_EQ(back->at(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(back->at(1, 1), 2.5);
  EXPECT_EQ(back->categorical(0).labels[back->categorical(0).codes[1]], "two");
}

TEST_F(CsvTest, CustomDelimiter) {
  WriteFile("a;b\n1;2\n");
  CsvReadOptions opts;
  opts.delimiter = ';';
  opts.numeric_columns = {"a", "b"};
  auto data = ReadCsv(path_, opts);
  ASSERT_TRUE(data.ok());
  EXPECT_DOUBLE_EQ(data->at(0, 1), 2.0);
}

// ---------------------------------------------------------------------------
// RFC-4180 quoting: real fairness datasets (Adult/COMPAS-style) carry
// quoted, comma-bearing categorical labels; the writer used to emit them
// verbatim, producing files the reader silently corrupted.

TEST_F(CsvTest, ReadsQuotedFields) {
  WriteFile("a,g\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n3,\"line\nbreak\"\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"a"};
  opts.categorical_columns = {"g"};
  auto data = ReadCsv(path_, opts);
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_EQ(data->size(), 3u);
  const auto& col = data->categorical(0);
  EXPECT_EQ(col.labels[static_cast<size_t>(col.codes[0])], "x,y");
  EXPECT_EQ(col.labels[static_cast<size_t>(col.codes[1])], "say \"hi\"");
  EXPECT_EQ(col.labels[static_cast<size_t>(col.codes[2])], "line\nbreak");
}

TEST_F(CsvTest, QuotedFieldsKeepWhitespaceUnquotedAreTrimmed) {
  WriteFile("a,g\n1,\" padded \"\n2,  plain  \n");
  CsvReadOptions opts;
  opts.numeric_columns = {"a"};
  opts.categorical_columns = {"g"};
  auto data = ReadCsv(path_, opts);
  ASSERT_TRUE(data.ok()) << data.status();
  const auto& col = data->categorical(0);
  EXPECT_EQ(col.labels[static_cast<size_t>(col.codes[0])], " padded ");
  EXPECT_EQ(col.labels[static_cast<size_t>(col.codes[1])], "plain");
}

TEST_F(CsvTest, QuotedHeaderAndNumericCells) {
  WriteFile("\"price, usd\",g\n\"1.5\",x\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"price, usd"};
  opts.categorical_columns = {"g"};
  auto data = ReadCsv(path_, opts);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_DOUBLE_EQ(data->at(0, 0), 1.5);
  EXPECT_EQ(data->attr_names()[0], "price, usd");
}

TEST_F(CsvTest, CrlfLineEndings) {
  WriteFile("a,g\r\n1,x\r\n2,y\r\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"a"};
  opts.categorical_columns = {"g"};
  auto data = ReadCsv(path_, opts);
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_EQ(data->size(), 2u);
  // No stray '\r' may leak into labels.
  EXPECT_EQ(data->categorical(0).labels[0], "x");
  EXPECT_EQ(data->categorical(0).labels[1], "y");
}

TEST_F(CsvTest, UnterminatedQuoteIsAnError) {
  WriteFile("a,g\n1,\"never closed\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"a"};
  opts.categorical_columns = {"g"};
  EXPECT_EQ(ReadCsv(path_, opts).status().code(), StatusCode::kIOError);
}

TEST_F(CsvTest, AdversarialLabelsRoundTrip) {
  Dataset data(std::vector<std::string>{"x", "attr,with,commas"});
  data.AddCategoricalColumn(
      "grp", {"plain", "comma, inside", "\"quoted\"", "line\nbreak",
              "cr\rhere", " boundary space ", "", "mix,\"of\"\nall"});
  for (int i = 0; i < 16; ++i) {
    data.AddRow({0.1 * i, 1.0 / (i + 1)}, {i % 8});
  }
  ASSERT_TRUE(WriteCsv(data, path_).ok());

  CsvReadOptions opts;
  opts.numeric_columns = {"x", "attr,with,commas"};
  opts.categorical_columns = {"grp"};
  auto back = ReadCsv(path_, opts);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), data.size());
  ASSERT_EQ(back->categorical(0).labels, data.categorical(0).labels);
  EXPECT_EQ(back->categorical(0).codes, data.categorical(0).codes);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int j = 0; j < data.dim(); ++j) {
      EXPECT_EQ(back->at(i, j), data.at(i, j)) << i << "," << j;
    }
  }
}

TEST_F(CsvTest, PropertyRandomLabelsRoundTrip) {
  // Property-style sweep: labels drawn from an alphabet stacked with every
  // character the quoting layer must survive. The written file must
  // re-read to an identical dataset — same coords (bit-exact), codes and
  // labels — across many random tables.
  const std::string alphabet = "ab,\"\n\r;| .'\\\t";
  Rng rng(20260730);
  for (int trial = 0; trial < 25; ++trial) {
    Dataset data(std::vector<std::string>{"u", "v"});
    const int num_labels = 1 + static_cast<int>(rng.UniformInt(6));
    std::vector<std::string> labels;
    for (int l = 0; l < num_labels; ++l) {
      std::string label;
      const size_t len = rng.UniformInt(9);  // Empty labels included.
      for (size_t c = 0; c < len; ++c) {
        label.push_back(alphabet[rng.UniformInt(alphabet.size())]);
      }
      if (std::find(labels.begin(), labels.end(), label) != labels.end()) {
        label += "#" + std::to_string(l);  // Keep labels distinct.
      }
      labels.push_back(label);
    }
    data.AddCategoricalColumn("g", labels);
    const size_t rows = 1 + rng.UniformInt(20);
    for (size_t i = 0; i < rows; ++i) {
      data.AddRow({rng.Uniform(), rng.Uniform() * 1e3},
                  {static_cast<int>(rng.UniformInt(labels.size()))});
    }
    ASSERT_TRUE(WriteCsv(data, path_).ok()) << "trial " << trial;

    CsvReadOptions opts;
    opts.numeric_columns = {"u", "v"};
    opts.categorical_columns = {"g"};
    auto back = ReadCsv(path_, opts);
    ASSERT_TRUE(back.ok()) << "trial " << trial << ": " << back.status();
    ASSERT_EQ(back->size(), data.size()) << "trial " << trial;
    // Labels come back in first-seen row order; compare through the codes.
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(back->at(i, 0), data.at(i, 0)) << "trial " << trial;
      EXPECT_EQ(back->at(i, 1), data.at(i, 1)) << "trial " << trial;
      const auto& got = back->categorical(0);
      const auto& want = data.categorical(0);
      EXPECT_EQ(got.labels[static_cast<size_t>(got.codes[i])],
                want.labels[static_cast<size_t>(want.codes[i])])
          << "trial " << trial << " row " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Missing-cell policy: a row too short to carry a categorical cell used to
// be silently assigned an invented "?" group even in strict mode.

TEST_F(CsvTest, MissingCategoricalCellFailsByDefault) {
  WriteFile("a,g\n1,x\n2\n3,y\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"a"};
  opts.categorical_columns = {"g"};
  auto data = ReadCsv(path_, opts);
  EXPECT_EQ(data.status().code(), StatusCode::kIOError);
  EXPECT_NE(data.status().message().find("missing categorical cell"),
            std::string::npos)
      << data.status().message();
}

TEST_F(CsvTest, MissingCategoricalCellSkippedWhenLenient) {
  WriteFile("a,g\n1,x\n2\n3,y\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"a"};
  opts.categorical_columns = {"g"};
  opts.skip_bad_rows = true;
  auto data = ReadCsv(path_, opts);
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data->size(), 2u);
  // No invented placeholder group.
  EXPECT_EQ(data->categorical(0).labels,
            (std::vector<std::string>{"x", "y"}));
}

TEST_F(CsvTest, SkippedRowRegistersNoLabel) {
  // The bad row's would-be label must not leak into the label table.
  WriteFile("a,g\nnope,ghost\n1,real\n");
  CsvReadOptions opts;
  opts.numeric_columns = {"a"};
  opts.categorical_columns = {"g"};
  opts.skip_bad_rows = true;
  auto data = ReadCsv(path_, opts);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->categorical(0).labels,
            (std::vector<std::string>{"real"}));
}

TEST_F(CsvTest, CoordinatesRoundTripBitExact) {
  Dataset data(std::vector<std::string>{"x"});
  data.AddPoint({1.0 / 3.0});
  data.AddPoint({std::sqrt(2.0)});
  data.AddPoint({1e-17});
  data.AddPoint({123456789.123456789});
  ASSERT_TRUE(WriteCsv(data, path_).ok());
  CsvReadOptions opts;
  opts.numeric_columns = {"x"};
  auto back = ReadCsv(path_, opts);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(back->at(i, 0), data.at(i, 0)) << "row " << i;  // Bit-exact.
  }
}

}  // namespace
}  // namespace fairhms
