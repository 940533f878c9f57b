#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "csv/agg_storlet.h"
#include "csv/batch_reader.h"
#include "csv/csv_storlet.h"
#include "csv/etl_storlet.h"
#include "csv/record_reader.h"
#include "sql/schema.h"
#include "storlets/storlet.h"

namespace scoop {
namespace {

TEST(CsvRecordParserTest, PlainFields) {
  CsvRecordParser parser;
  auto fields = parser.Parse("a,b,,d");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[3], "d");
}

TEST(CsvRecordParserTest, QuotedFields) {
  CsvRecordParser parser;
  auto fields = parser.Parse("\"a,b\",plain,\"say \"\"hi\"\"\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "plain");
  EXPECT_EQ(fields[2], "say \"hi\"");
}

TEST(CsvRecordParserTest, TrailingComma) {
  CsvRecordParser parser;
  auto fields = parser.Parse("a,\"b\",");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[2], "");
}

TEST(CsvWriterTest, RoundTripsThroughParser) {
  std::vector<std::string_view> fields = {"plain", "with,comma",
                                          "with\"quote", ""};
  std::string out;
  WriteCsvRecord(fields, &out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
  CsvRecordParser parser;
  auto parsed = parser.Parse(std::string_view(out).substr(0, out.size() - 1));
  ASSERT_EQ(parsed.size(), fields.size());
  for (size_t i = 0; i < fields.size(); ++i) EXPECT_EQ(parsed[i], fields[i]);
}

TEST(CsvBatchReaderTest, TypedRowsAndMalformed) {
  Schema schema({{"id", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"score", ColumnType::kDouble}});
  std::string data =
      "1,alice,3.5\n"
      "2,bob,\n"         // null score
      "oops,short\n"     // malformed: 2 fields
      "3,carol,notnum\n" // unparseable double -> null
      "\n"               // blank line skipped
      "4,dave,1.25";     // unterminated final record
  CsvBatchReader reader(data, &schema);
  std::vector<Row> rows;
  RecordBatch batch;
  while (reader.Next(&batch)) {
    for (Row& row : batch.ToRows()) rows.push_back(std::move(row));
  }
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(reader.stats().malformed_rows, 1);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows[0][1].AsString(), "alice");
  EXPECT_DOUBLE_EQ(rows[0][2].AsDoubleExact(), 3.5);
  EXPECT_TRUE(rows[1][2].is_null());
  EXPECT_TRUE(rows[2][2].is_null());
  EXPECT_EQ(rows[3][0].AsInt64(), 4);
}

TEST(CsvBatchReaderTest, HandlesCrLf) {
  Schema schema({{"a", ColumnType::kString}});
  CsvBatchReader reader("x\r\ny\r\n", &schema);
  RecordBatch batch;
  ASSERT_TRUE(reader.Next(&batch));
  std::vector<Row> rows = batch.ToRows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsString(), "x");
  EXPECT_EQ(rows[1][0].AsString(), "y");
  EXPECT_FALSE(reader.Next(&batch));
}

// --- batch/row engine equivalence ------------------------------------------
// The columnar scanner must be bit-compatible with ScalarRowReader:
// same typed values, same nulls, same malformed accounting, whatever the
// dialect corner (quoted fields, CRLF, blanks) or schema shape.

void ExpectReadersAgree(const std::string& data, const Schema& schema) {
  ScalarRowReader reference(data, &schema);
  std::vector<Row> expected;
  Row row;
  while (reference.Next(&row)) expected.push_back(row);

  CsvBatchOptions options;
  options.max_batch_rows = 3;  // tiny batches exercise batch boundaries
  CsvBatchReader reader(data, &schema, options);
  std::vector<Row> actual;
  RecordBatch batch;
  while (reader.Next(&batch)) {
    for (Row& r : batch.ToRows()) actual.push_back(std::move(r));
  }

  ASSERT_EQ(actual.size(), expected.size());
  for (size_t r = 0; r < actual.size(); ++r) {
    ASSERT_EQ(actual[r].size(), expected[r].size());
    for (size_t c = 0; c < actual[r].size(); ++c) {
      EXPECT_EQ(actual[r][c].is_null(), expected[r][c].is_null())
          << "row " << r << " col " << c;
      EXPECT_EQ(actual[r][c].ToString(), expected[r][c].ToString())
          << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(reader.stats().malformed_rows, reference.malformed_rows());
  EXPECT_EQ(reader.stats().rows_read, reference.rows_read());
}

TEST(BatchRowEquivalenceTest, DialectCorners) {
  Schema schema({{"id", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"score", ColumnType::kDouble}});
  const std::string data =
      "1,alice,3.5\n"
      "2,\"quoted,comma\",1e3\n"      // exponent double: slow-path parse
      "3,\"say \"\"hi\"\"\",-0.25\n"  // escaped quotes
      "bad,row\n"                     // malformed
      "\n"                            // blank, skipped
      "4,crlf,1.0\r\n"
      "5,,\n"                         // nulls
      "6,tail,0.125";                 // unterminated final record
  ExpectReadersAgree(data, schema);
}

TEST(BatchRowEquivalenceTest, RandomizedSchemasAndData) {
  Rng rng(99);
  const char* tokens[] = {"alpha", "beta,x", "g\"q",  "2015-01-01",
                          "-12",   "7.25",   "1e308", "0.1",
                          "",      "nan",    "Paris", "  pad  "};
  for (int trial = 0; trial < 25; ++trial) {
    size_t arity = 1 + rng.NextBounded(5);
    std::vector<Column> columns;
    for (size_t c = 0; c < arity; ++c) {
      ColumnType type = static_cast<ColumnType>(rng.NextBounded(3));
      columns.push_back({"c" + std::to_string(c), type});
    }
    Schema schema(columns);
    std::string data;
    size_t lines = 5 + rng.NextBounded(40);
    for (size_t l = 0; l < lines; ++l) {
      // Occasionally the wrong arity, so malformed accounting is hit.
      size_t n = rng.NextBounded(10) == 0 ? 1 + rng.NextBounded(7) : arity;
      std::vector<std::string_view> fields;
      for (size_t f = 0; f < n; ++f) {
        fields.push_back(tokens[rng.NextIndex(12)]);
      }
      WriteCsvRecord(fields, &data);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectReadersAgree(data, schema);
  }
}

TEST(CsvStreamBatcherTest, TinyWindowsNeverSplitRecords) {
  // Quoted fields with embedded commas across 16-byte windows: the
  // batcher must cut windows at record boundaries only, and its counters
  // must match a whole-buffer reference scan.
  std::string data;
  std::vector<std::string> expected;
  for (int i = 0; i < 40; ++i) {
    std::string rec = std::to_string(i) + ",\"city, nr " + std::to_string(i) +
                      "\"," + std::to_string(i * 2);
    expected.push_back(std::to_string(i) + "|city, nr " + std::to_string(i) +
                       "|" + std::to_string(i * 2));
    data += rec + "\n";
    if (i % 9 == 0) data += "short,row\n";  // malformed (arity 2 != 3)
    if (i % 11 == 0) data += "\n";          // blank, skipped
  }
  StringByteStream source(data);
  StorletInputStream input(&source);
  CsvBatchOptions options;
  options.window_bytes = 16;
  options.max_batch_rows = 7;
  CsvStreamBatcher batcher(&input, 3, options);
  std::vector<std::string> actual;
  RawRecordBatch raw;
  while (batcher.Next(&raw)) {
    for (int64_t r = 0; r < raw.num_rows; ++r) {
      std::string joined;
      for (size_t f = 0; f < raw.num_fields; ++f) {
        if (f > 0) joined += "|";
        joined += raw.fields[r * raw.num_fields + f];
      }
      actual.push_back(std::move(joined));
    }
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(batcher.malformed_rows(), 5);   // i = 0, 9, 18, 27, 36
  EXPECT_EQ(batcher.records_seen(),
            static_cast<int64_t>(expected.size()) + 5);
}

TEST(AppendCsvFieldTest, RoundTripsThroughParser) {
  const std::string_view fields[] = {"plain", "with,comma", "with\"quote",
                                     "\"fully quoted\"", "", "trailing "};
  std::string record;
  for (size_t i = 0; i < 6; ++i) {
    if (i > 0) record += ',';
    AppendCsvField(fields[i], &record);
  }
  CsvRecordParser parser;
  auto parsed = parser.Parse(record);
  ASSERT_EQ(parsed.size(), 6u);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(parsed[i], fields[i]) << i;
}

// Runs `storlet` over `data` from a string stream, served `chunk_size`
// bytes per read, into a string sink; returns the output and, when
// asked, the storlet's metadata.
Result<std::string> RunStorlet(Storlet& storlet, const std::string& data,
                               const StorletParams& params,
                               std::map<std::string, std::string>* metadata =
                                   nullptr,
                               size_t chunk_size = kDefaultStreamChunk) {
  StringByteStream source(data, chunk_size);
  StorletInputStream in(&source);
  std::string output;
  StringByteSink sink(&output);
  StorletOutputStream out(&sink);
  StorletLogger logger;
  Status status = storlet.Invoke(in, out, params, logger);
  if (!status.ok()) return status;
  out.Flush();
  if (metadata != nullptr) *metadata = out.metadata();
  return output;
}

class CsvStorletTest : public ::testing::Test {
 protected:
  Result<std::string> Run(const std::string& data, StorletParams params) {
    CsvStorlet storlet;
    return RunStorlet(storlet, data, params);
  }

  const std::string schema_spec_ = "vid:int64,city:string,load:double";
  const std::string data_ =
      "1,Paris,10.5\n"
      "2,Rotterdam,20.0\n"
      "3,Rotterdam,30.25\n"
      "4,Nice,40.0\n";
};

TEST_F(CsvStorletTest, RequiresSchema) {
  EXPECT_FALSE(Run(data_, {}).ok());
}

TEST_F(CsvStorletTest, IdentityWhenNoFilters) {
  auto out = Run(data_, {{"schema", schema_spec_}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data_);
}

TEST_F(CsvStorletTest, SelectionOnly) {
  auto out = Run(data_, {{"schema", schema_spec_},
                         {"selection", "(like city \"Rotterdam\")"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "2,Rotterdam,20.0\n3,Rotterdam,30.25\n");
}

TEST_F(CsvStorletTest, ProjectionOnly) {
  auto out = Run(data_, {{"schema", schema_spec_}, {"projection", "city,vid"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "Paris,1\nRotterdam,2\nRotterdam,3\nNice,4\n");
}

TEST_F(CsvStorletTest, SelectionAndProjection) {
  auto out = Run(data_, {{"schema", schema_spec_},
                         {"projection", "load"},
                         {"selection", "(gt load 15)"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "20.0\n30.25\n40.0\n");
}

TEST_F(CsvStorletTest, NumericSelectionOnIntColumn) {
  auto out = Run(data_, {{"schema", schema_spec_},
                         {"selection", "(le vid 2)"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1,Paris,10.5\n2,Rotterdam,20.0\n");
}

TEST_F(CsvStorletTest, UnknownProjectionColumnFails) {
  EXPECT_FALSE(
      Run(data_, {{"schema", schema_spec_}, {"projection", "ghost"}}).ok());
}

TEST_F(CsvStorletTest, BadSelectionFails) {
  EXPECT_FALSE(
      Run(data_, {{"schema", schema_spec_}, {"selection", "(bogus"}}).ok());
}

TEST_F(CsvStorletTest, LimitMustBeANonNegativeInteger) {
  auto out = Run(data_, {{"schema", schema_spec_}, {"limit", " 2 "}});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, "1,Paris,10.5\n2,Rotterdam,20.0\n");
  // Out-of-range text is refused, not clamped to INT64_MAX.
  for (const char* limit : {"-1", "x", "2x", "99999999999999999999"}) {
    auto bad = Run(data_, {{"schema", schema_spec_}, {"limit", limit}});
    ASSERT_FALSE(bad.ok()) << limit;
    EXPECT_TRUE(bad.status().IsInvalidArgument()) << limit;
  }
}

TEST_F(CsvStorletTest, MalformedRowsDroppedWhenFiltering) {
  std::string data = "1,Paris,1.0\nbroken\n2,Nice,2.0\n";
  auto out = Run(data, {{"schema", schema_spec_}, {"projection", "vid"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1\n2\n");
}

TEST_F(CsvStorletTest, OutputBytesPinnedForEveryParameterShape) {
  // A quoted comma, a malformed row, a blank line and a CRLF line. Every
  // shape, `schema` alone included, drops the malformed and blank lines
  // and ends each record with a bare '\n'.
  const std::string data =
      "1,Paris,10.5\n"
      "2,\"Rotter,dam\",20.0\n"
      "broken\n"
      "3,Rotterdam,30.25\r\n"
      "\n"
      "4,Nice,40.0\n";
  const std::vector<std::pair<StorletParams, std::string>> shapes = {
      {{{"schema", schema_spec_}},
       "1,Paris,10.5\n2,\"Rotter,dam\",20.0\n3,Rotterdam,30.25\n"
       "4,Nice,40.0\n"},
      {{{"schema", schema_spec_}, {"selection", "(gt load 15)"}},
       "2,\"Rotter,dam\",20.0\n3,Rotterdam,30.25\n4,Nice,40.0\n"},
      {{{"schema", schema_spec_}, {"projection", "city,vid"}},
       "Paris,1\n\"Rotter,dam\",2\nRotterdam,3\nNice,4\n"},
      {{{"schema", schema_spec_},
        {"projection", "load"},
        {"selection", "(like city \"Rotter%\")"}},
       "20.0\n30.25\n"},
      {{{"schema", schema_spec_},
        {"projection", "city"},
        {"selection", "(gt load 15)"},
        {"limit", "2"}},
       "\"Rotter,dam\"\nRotterdam\n"},
  };
  for (const auto& [params, expected] : shapes) {
    auto out = Run(data, params);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(*out, expected);
  }
}

// A two-stage storlet pipeline: the csv storlet's CSV text output feeds
// the agg storlet, the one inter-stage format.
class StorletPipelineTest : public ::testing::Test {
 protected:
  const std::string schema_spec_ = "vid:int64,city:string,load:double";
  const std::string data_ =
      "1,Paris,10.5\n"
      "2,\"Rotter,dam\",20.0\n"
      "3,\"Rotter,dam\",30.25\n"
      "broken,row\n"
      "4,Nice,40.0\n"
      "5,Paris,2.5\n";
};

TEST_F(StorletPipelineTest, CsvOutputFeedsAggStorlet) {
  CsvStorlet csv;
  GroupAggStorlet agg;
  auto text = RunStorlet(csv, data_,
                         {{"schema", schema_spec_},
                          {"projection", "city,load"},
                          {"selection", "(gt load 5)"}});
  ASSERT_TRUE(text.ok()) << text.status();
  auto aggregated = RunStorlet(agg, *text,
                               {{"schema", "city:string,load:double"},
                                {"group", "city"},
                                {"aggs", "sum:load,count:*"}});
  ASSERT_TRUE(aggregated.ok()) << aggregated.status();
  // load > 5 keeps rows 1-4; groups sort by key: Nice, Paris, Rotter,dam
  // (the comma-bearing key is re-quoted on output).
  EXPECT_EQ(*aggregated, "Nice,40,1\nParis,10.5,1\n\"Rotter,dam\",50.25,2\n");
}

class EtlStorletTest : public ::testing::Test {
 protected:
  Result<std::string> Run(const std::string& data, StorletParams params,
                          std::map<std::string, std::string>* metadata =
                              nullptr,
                          size_t chunk_size = kDefaultStreamChunk) {
    EtlStorlet storlet;
    return RunStorlet(storlet, data, params, metadata, chunk_size);
  }
};

TEST_F(EtlStorletTest, TrimsAndNormalizes) {
  auto out = Run(" 1 , Paris \r\n2,Nice\r\n",
                 {{"schema", "vid:int64,city:string"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1,Paris\n2,Nice\n");
}

TEST_F(EtlStorletTest, DropsMalformedRows) {
  auto out = Run("1,Paris\nnot-a-number,Nice\n2\n3,Lyon\n",
                 {{"schema", "vid:int64,city:string"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1,Paris\n3,Lyon\n");
}

TEST_F(EtlStorletTest, KeepsMalformedWhenAskedTo) {
  auto out = Run("x,Paris\n",
                 {{"schema", "vid:int64,city:string"},
                  {"drop_malformed", "false"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "x,Paris\n");
}

TEST_F(EtlStorletTest, WrongArityRowIsDroppedAndCountedOnceInBothModes) {
  // drop_malformed=false keeps a row whose numeric field fails to parse,
  // never one of the wrong arity; either way that row counts once.
  for (const char* drop : {"true", "false"}) {
    SCOPED_TRACE(std::string("drop_malformed=") + drop);
    std::map<std::string, std::string> metadata;
    auto out = Run("1,Paris,x\n2,Nice\n",
                   {{"schema", "vid:int64,city:string"},
                    {"drop_malformed", drop}},
                   &metadata);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(*out, "2,Nice\n");
    EXPECT_EQ(metadata.at("rows-dropped"), "1");
  }
}

TEST_F(EtlStorletTest, OutputBytesPinnedForEveryInputShape) {
  const std::string meters = "vid:int64,city:string,load:double";
  const std::string stamps = "vid:int64,stamp:string";
  const StorletParams split = {{"schema", stamps},
                               {"split_column", "stamp"},
                               {"split_names", "day,time"}};
  StorletParams split_untrimmed = split;
  split_untrimmed["trim"] = "false";
  const std::string numerics =
      "+1,.5\n-3,3.\n1e3,1e3\n7,inf\n 12 , 12 \nx,1\n2,x\n,\n3.,-3\n";
  struct Case {
    const char* name;
    std::string input;
    StorletParams params;
    std::string expected;
    const char* rows_dropped;
    const char* schema = nullptr;  // the output schema, when not the input's
  };
  std::vector<Case> cases = {
      {"quoted commas and doubled quotes",
       "1,\"Rotter,dam\",2.5\n2,\"say \"\"hi\"\"\",3\n3,\"plain\",4\n"
       "4,\" Nice \",5\n5,\"Ni\"ce,6\n",
       {{"schema", meters}},
       "1,\"Rotter,dam\",2.5\n2,\"say \"\"hi\"\"\",3\n3,plain,4\n4,Nice,5\n"
       "5,Ni,6\n",
       "0"},
      {"a quoted newline cuts the record like any other",
       "1,\"Ni\nce\",2\n3,Lyon,4\n",
       {{"schema", meters}},
       "3,Lyon,4\n",
       "2"},
      {"quoted fields untrimmed",
       "4,\" Nice \",5\n",
       {{"schema", meters}, {"trim", "false"}},
       "4, Nice ,5\n",
       "0"},
      {"blank, whitespace-only and CRLF lines, a lone trailing CR pair",
       "1,Paris,1.5\r\n\n   \n\t \r\n\r\n2,Nice,2\r\n\r\r",
       {{"schema", meters}},
       "1,Paris,1.5\n2,Nice,2\n",
       "0"},
      {"unterminated last line", "1,Paris,1.5\n2,Nice,2",
       {{"schema", meters}}, "1,Paris,1.5\n2,Nice,2\n", "0"},
      {"unterminated last line ending in CR", "1,Paris,1.5\n3,Lyon,3\r",
       {{"schema", meters}}, "1,Paris,1.5\n3,Lyon,3\n", "0"},
      {"padded fields, trim on",
       " 1 , Paris ,\t2.5\n1,Paris\r,2\n2,Nice,\v3 \n",
       {{"schema", meters}},
       "1,Paris,2.5\n1,Paris,2\n2,Nice,3\n",
       "0"},
      {"padded fields, trim off",
       " 1 , Paris ,\t2.5\n1,Paris\r,2\n2,Nice,\v3 \n",
       {{"schema", meters}, {"trim", "false"}},
       " 1 , Paris ,\t2.5\n1,Paris\r,2\n2,Nice,\v3 \n",
       "0"},
      {"whitespace-only numeric field, trim off",
       "1,Paris, \n2,Nice,2\n",
       {{"schema", meters}, {"trim", "false"}},
       "2,Nice,2\n",
       "1"},
      {"numeric corners, drop_malformed on", numerics,
       {{"schema", "vid:int64,load:double"}},
       "+1,.5\n-3,3.\n7,inf\n12,12\n,\n", "4"},
      {"numeric corners and a wrong-arity row, drop_malformed off",
       numerics + "9\n",
       {{"schema", "vid:int64,load:double"}, {"drop_malformed", "false"}},
       "+1,.5\n-3,3.\n1e3,1e3\n7,inf\n12,12\nx,1\n2,x\n,\n3.,-3\n", "1"},
      {"split column",
       "1,2015-01-01;12:30\n2, 2015-01-02 ; 08:00 \n3,only\n4,a;b;c\n"
       "5,\"a,b;c\"\nx,1;2\n",
       split,
       "1,2015-01-01,12:30\n2,2015-01-02,08:00\n3,only,\n4,a,b\n"
       "5,\"a,b\",c\n",
       "1", "vid:int64,day:string,time:string"},
      {"split column untrimmed", "2, 2015-01-02 ; 08:00 \n", split_untrimmed,
       "2, 2015-01-02 , 08:00 \n", "0", "vid:int64,day:string,time:string"},
  };

  // Records straddling the 256 KiB scan window, and one record longer
  // than the window, among clean, padded, quoted and malformed rows.
  Case windows{"records across scan windows", "", {{"schema", meters}}, "",
               nullptr};
  int64_t dropped = 0;
  for (int i = 0; windows.input.size() < 600 * 1024; ++i) {
    const std::string vid = std::to_string(i);
    if (i == 4000) {
      const std::string row = vid + "," + std::string(300 * 1024, 'a') + ",4";
      windows.input += row + "\n";
      windows.expected += row + "\n";
    }
    switch (i % 4) {
      case 0:
        windows.input += vid + ",Paris," + vid + ".5\n";
        windows.expected += vid + ",Paris," + vid + ".5\n";
        break;
      case 1:
        windows.input += " " + vid + " , Nice ,1\r\n";
        windows.expected += vid + ",Nice,1\n";
        break;
      case 2:
        windows.input += vid + ",\"Rotter,dam\",2\n";
        windows.expected += vid + ",\"Rotter,dam\",2\n";
        break;
      default:
        windows.input += "x" + vid + ",Lyon,3\n";
        ++dropped;
        break;
    }
  }
  const std::string windows_dropped = std::to_string(dropped);
  windows.rows_dropped = windows_dropped.c_str();
  cases.push_back(windows);

  for (const Case& c : cases) {
    for (size_t chunk : {size_t{7}, kDefaultStreamChunk}) {
      SCOPED_TRACE(std::string(c.name) + ", " + std::to_string(chunk) +
                   "-byte chunks");
      std::map<std::string, std::string> metadata;
      auto out = Run(c.input, c.params, &metadata, chunk);
      ASSERT_TRUE(out.ok()) << out.status();
      EXPECT_EQ(*out, c.expected);
      EXPECT_EQ(metadata.at("rows-dropped"), c.rows_dropped);
      EXPECT_EQ(metadata.at("schema"),
                c.schema != nullptr ? c.schema : c.params.at("schema"));
    }
  }
}

TEST_F(EtlStorletTest, SplitsColumn) {
  std::map<std::string, std::string> metadata;
  auto out = Run("1,2015-01-01;12:30\n2,2015-01-02;08:00\n",
                 {{"schema", "vid:int64,stamp:string"},
                  {"split_column", "stamp"},
                  {"split_names", "day,time"}},
                 &metadata);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1,2015-01-01,12:30\n2,2015-01-02,08:00\n");
  EXPECT_EQ(metadata.at("schema"), "vid:int64,day:string,time:string");
}

TEST_F(EtlStorletTest, SplitPadsMissingPieces) {
  auto out = Run("1,only-day\n",
                 {{"schema", "vid:int64,stamp:string"},
                  {"split_column", "stamp"},
                  {"split_names", "day,time"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "1,only-day,\n");
}

TEST_F(EtlStorletTest, SplitValidatesParameters) {
  EXPECT_FALSE(Run("1,x\n", {{"schema", "vid:int64,stamp:string"},
                             {"split_column", "ghost"},
                             {"split_names", "a,b"}})
                   .ok());
  EXPECT_FALSE(Run("1,x\n", {{"schema", "vid:int64,stamp:string"},
                             {"split_column", "stamp"}})
                   .ok());
  EXPECT_FALSE(Run("1,x\n", {{"schema", "vid:int64,stamp:string"},
                             {"split_column", "stamp"},
                             {"split_names", "a,b"},
                             {"split_separator", "--"}})
                   .ok());
}

}  // namespace
}  // namespace scoop
