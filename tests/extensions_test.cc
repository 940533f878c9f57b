// Tests of the beyond-the-prototype capabilities the paper sketches:
// filter+compression pipelines (§VI-C), partial aggregation at the store
// (§IV/§VII), image-metadata pushdown and the DataFrame API. Adaptive
// pushdown (§VII) is the QoS overload rung, tested in qos_test.cc.
#include <gtest/gtest.h>

#include "common/lz.h"
#include "common/strings.h"
#include "compute/dataframe.h"
#include "csv/agg_storlet.h"
#include "mediameta/image_format.h"
#include "mediameta/image_meta_storlet.h"
#include "scoop/scoop.h"
#include "storlets/compress_storlet.h"
#include "storlets/headers.h"
#include "workload/generator.h"

namespace scoop {
namespace {

Result<std::string> RunStorlet(Storlet& storlet, const std::string& data,
                               StorletParams params) {
  StringByteStream source(data);
  StorletInputStream in(&source);
  std::string output;
  StringByteSink sink(&output);
  StorletOutputStream out(&sink);
  StorletLogger logger;
  Status status = storlet.Invoke(in, out, params, logger);
  if (!status.ok()) return status;
  out.Flush();
  return output;
}

TEST(CompressStorletTest, RoundtripThroughBothFilters) {
  std::string data;
  for (int i = 0; i < 500; ++i) {
    data += "1007,2015-01-01 00:10:00,1234,Rotterdam\n";
  }
  CompressStorlet compress;
  auto frame = RunStorlet(compress, data, {});
  ASSERT_TRUE(frame.ok());
  EXPECT_LT(frame->size(), data.size() / 4);
  EXPECT_TRUE(IsCompressedFrame(*frame));

  DecompressStorlet decompress;
  auto restored = RunStorlet(decompress, *frame, {});
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, data);

  auto direct = DecodeCompressedFrame(*frame);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*direct, data);
}

TEST(CompressStorletTest, RejectsBadFrames) {
  EXPECT_FALSE(IsCompressedFrame("short"));
  EXPECT_FALSE(DecodeCompressedFrame("definitely not a frame").ok());
  DecompressStorlet decompress;
  EXPECT_FALSE(RunStorlet(decompress, "garbage input", {}).ok());
  // Corrupt the size field of a valid frame.
  CompressStorlet compress;
  auto frame = RunStorlet(compress, "hello world hello world", {});
  ASSERT_TRUE(frame.ok());
  (*frame)[5] = static_cast<char>((*frame)[5] + 1);
  EXPECT_FALSE(DecodeCompressedFrame(*frame).ok());
}

TEST(CompressStorletTest, EmptyInput) {
  CompressStorlet compress;
  auto frame = RunStorlet(compress, "", {});
  ASSERT_TRUE(frame.ok());
  auto restored = DecodeCompressedFrame(*frame);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->empty());
}

class AggStorletTest : public ::testing::Test {
 protected:
  Result<std::string> Run(const std::string& data, StorletParams params) {
    GroupAggStorlet storlet;
    return RunStorlet(storlet, data, std::move(params));
  }

  const std::string schema_ = "vid:int64,city:string,load:double";
  const std::string data_ =
      "1,Paris,10.5\n"
      "2,Rotterdam,20\n"
      "3,Rotterdam,30\n"
      "4,Paris,2.5\n";
};

TEST_F(AggStorletTest, GroupedSumMinMaxCount) {
  auto out = Run(data_, {{"schema", schema_},
                         {"group", "city"},
                         {"aggs", "sum:load,min:load,max:load,count:*"}});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out,
            "Paris,13,2.5,10.5,2\n"
            "Rotterdam,50,20,30,2\n");
}

TEST_F(AggStorletTest, GlobalAggregation) {
  auto out = Run(data_, {{"schema", schema_}, {"aggs", "count:*,sum:vid"}});
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, "4,10\n");
}

TEST_F(AggStorletTest, SelectionAppliesFirst) {
  auto out = Run(data_, {{"schema", schema_},
                         {"group", "city"},
                         {"aggs", "count:*"},
                         {"selection", "(gt load 15)"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "Rotterdam,2\n");
}

TEST_F(AggStorletTest, ValidatesParameters) {
  EXPECT_FALSE(Run(data_, {{"aggs", "count:*"}}).ok());  // no schema
  EXPECT_FALSE(Run(data_, {{"schema", schema_}}).ok());  // no aggs
  EXPECT_FALSE(
      Run(data_, {{"schema", schema_}, {"aggs", "avg:load"}}).ok());
  EXPECT_FALSE(
      Run(data_, {{"schema", schema_}, {"aggs", "sum:ghost"}}).ok());
  EXPECT_FALSE(Run(data_, {{"schema", schema_}, {"aggs", "sum:*"}}).ok());
  EXPECT_FALSE(
      Run(data_, {{"schema", schema_}, {"group", "ghost"}, {"aggs", "count:*"}})
          .ok());
  // A substr key's position and length are integers: empty or
  // out-of-range text is refused, not read as 0 or clamped.
  auto substr_group = [&](const char* group) {
    return Run(data_, {{"schema", schema_},
                       {"output", "partials"},
                       {"group", group},
                       {"aggs", "count:*"}});
  };
  EXPECT_TRUE(substr_group("substr(city,0,3)").ok());
  for (const char* group :
       {"substr(city,,7)", "substr(city,0,)", "substr(city,x,2)",
        "substr(city,0,99999999999999999999)",
        "substr(city,-99999999999999999999,2)"}) {
    auto out = substr_group(group);
    ASSERT_FALSE(out.ok()) << group;
    EXPECT_TRUE(out.status().IsInvalidArgument()) << group;
  }
}

TEST_F(AggStorletTest, PartialsMergeAcrossRanges) {
  // Aggregating two halves separately and folding the partials must equal
  // aggregating everything at once — the distributability contract.
  StorletParams params = {{"schema", schema_},
                          {"group", "city"},
                          {"aggs", "sum:load,count:*"}};
  auto whole = Run(data_, params);
  ASSERT_TRUE(whole.ok());
  auto first = Run("1,Paris,10.5\n2,Rotterdam,20\n", params);
  auto second = Run("3,Rotterdam,30\n4,Paris,2.5\n", params);
  ASSERT_TRUE(first.ok() && second.ok());
  // Fold partials client-side.
  std::map<std::string, std::pair<double, int64_t>> merged;
  for (const std::string& partial : {*first, *second}) {
    for (std::string_view line : Split(partial, '\n')) {
      if (line.empty()) continue;
      auto fields = Split(line, ',');
      ASSERT_EQ(fields.size(), 3u);
      auto& slot = merged[std::string(fields[0])];
      slot.first += *ParseDouble(fields[1]);
      slot.second += *ParseInt64(fields[2]);
    }
  }
  std::string folded;
  for (const auto& [city, totals] : merged) {
    folded += city + "," + Value(totals.first).ToString() + "," +
              std::to_string(totals.second) + "\n";
  }
  EXPECT_EQ(folded, *whole);
}

class ExtensionClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SwiftConfig config;
    config.num_proxies = 1;
    config.num_storage_nodes = 3;
    config.disks_per_node = 2;
    config.part_power = 5;
    auto cluster = ScoopCluster::Create(config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
    auto client = cluster_->Connect("tenant", "key", "acct");
    ASSERT_TRUE(client.ok());
    session_ = std::make_unique<ScoopSession>(cluster_.get(),
                                              std::move(client).value(), 2);
    GeneratorConfig gen{.num_meters = 20, .readings_per_meter = 500,
                        .seed = 77};
    generator_ = std::make_unique<GridPocketGenerator>(gen);
    ASSERT_TRUE(
        generator_->Upload(&session_->client(), "meters", "m", 2).ok());
    schema_ = GridPocketGenerator::MeterSchema();
  }

  std::unique_ptr<ScoopCluster> cluster_;
  std::unique_ptr<ScoopSession> session_;
  std::unique_ptr<GridPocketGenerator> generator_;
  Schema schema_;
};

TEST_F(ExtensionClusterTest, CompressedTransferSameResultsFewerBytes) {
  CsvSourceOptions plain_options;
  plain_options.chunk_size = 32 * 1024;
  session_->RegisterCsvTable("meters", "meters", "m", schema_, true,
                             plain_options);
  CsvSourceOptions compressed_options = plain_options;
  compressed_options.compress_transfer = true;
  session_->RegisterCsvTable("metersZ", "meters", "m", schema_, true,
                             compressed_options);

  // Low selectivity (full scan): exactly the regime where compression
  // makes pushdown competitive with Parquet (§VI-C).
  const char* kSqlA = "SELECT vid, date, index FROM meters ORDER BY vid, date";
  const char* kSqlB = "SELECT vid, date, index FROM metersZ ORDER BY vid, date";
  auto uncompressed = session_->Sql(kSqlA);
  auto compressed = session_->Sql(kSqlB);
  ASSERT_TRUE(uncompressed.ok()) << uncompressed.status();
  ASSERT_TRUE(compressed.ok()) << compressed.status();
  EXPECT_EQ(compressed->table.ToCsv(), uncompressed->table.ToCsv());
  EXPECT_LT(compressed->stats.bytes_ingested,
            uncompressed->stats.bytes_ingested / 2);
}

TEST_F(ExtensionClusterTest, AggStorletViaStorletRdd) {
  // Push a per-object partial aggregation via the §VII StorletRDD and
  // fold the partials — compare against the SQL engine's answer.
  StorletParams params;
  params["schema"] = schema_.ToSpec();
  params["group"] = "city";
  params["aggs"] = "count:*";
  StorletRdd rdd = session_->MakeStorletRdd("meters", "m",
                                            GroupAggStorlet::kName, params);
  auto outputs = rdd.Collect();
  ASSERT_TRUE(outputs.ok()) << outputs.status();
  std::map<std::string, int64_t> folded;
  for (const auto& output : *outputs) {
    EXPECT_TRUE(output.executed_at_store);
    for (std::string_view line : Split(output.output, '\n')) {
      if (line.empty()) continue;
      auto fields = Split(line, ',');
      ASSERT_EQ(fields.size(), 2u);
      folded[std::string(fields[0])] += *ParseInt64(fields[1]);
    }
  }

  CsvSourceOptions options;
  session_->RegisterCsvTable("meters", "meters", "m", schema_, true, options);
  auto reference = session_->Sql(
      "SELECT city, count(*) AS n FROM meters GROUP BY city ORDER BY city");
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(folded.size(), reference->table.rows.size());
  size_t i = 0;
  for (const auto& [city, count] : folded) {
    EXPECT_EQ(city, reference->table.rows[i][0].AsString());
    EXPECT_EQ(count, reference->table.rows[i][1].AsInt64());
    ++i;
  }
}

TEST(ImageFormatTest, RoundtripAndHeaderOnlyDecode) {
  SimpleImage image;
  image.width = 64;
  image.height = 48;
  image.channels = 3;
  image.exif = {{"camera", "GridCam 3000"},
                {"taken", "2015-01-17 10:20:00"},
                {"gps", "51.92,4.48"}};
  image.pixels = std::string(64 * 48 * 3, '\x7f');
  std::string encoded = EncodeImage(image);
  auto decoded = DecodeImage(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->width, 64);
  EXPECT_EQ(decoded->exif.at("camera"), "GridCam 3000");
  EXPECT_EQ(decoded->pixels.size(), image.pixels.size());

  auto header = DecodeImageHeader(encoded);
  ASSERT_TRUE(header.ok());
  EXPECT_TRUE(header->pixels.empty());
  EXPECT_EQ(header->exif.size(), 3u);

  EXPECT_FALSE(DecodeImage("not an image").ok());
  EXPECT_FALSE(DecodeImage(encoded.substr(0, 8)).ok());
}

TEST_F(ExtensionClusterTest, ImageMetadataPushdown) {
  // Upload binary "photos"; extract their EXIF at the store via the
  // imagemeta storlet + StorletRdd. Only tiny records cross the wire.
  ASSERT_TRUE(session_->client().CreateContainer("photos").ok());
  uint64_t total_image_bytes = 0;
  for (int i = 0; i < 5; ++i) {
    SimpleImage image;
    image.width = static_cast<uint16_t>(100 + i);
    image.height = 80;
    image.channels = 3;
    image.exif = {{"camera", i % 2 ? "CamA" : "CamB"},
                  {"taken", StrFormat("2015-01-%02d 12:00:00", i + 1)}};
    image.pixels = std::string(image.PixelBytes(), static_cast<char>(i));
    std::string encoded = EncodeImage(image);
    total_image_bytes += encoded.size();
    ASSERT_TRUE(session_->client()
                    .PutObject("photos", StrFormat("img%02d.simg", i),
                               std::move(encoded))
                    .ok());
  }
  StorletParams params;
  params["tags"] = "camera,taken";
  StorletRdd rdd = session_->MakeStorletRdd("photos", "img",
                                            ImageMetaStorlet::kName, params);
  auto outputs = rdd.Collect();
  ASSERT_TRUE(outputs.ok()) << outputs.status();
  ASSERT_EQ(outputs->size(), 5u);
  uint64_t transferred = 0;
  for (size_t i = 0; i < outputs->size(); ++i) {
    EXPECT_TRUE((*outputs)[i].executed_at_store);
    transferred += (*outputs)[i].output.size();
    auto fields = Split(
        Trim((*outputs)[i].output), ',');
    ASSERT_EQ(fields.size(), 5u) << (*outputs)[i].output;
    EXPECT_EQ(fields[0], std::to_string(100 + i));
    EXPECT_EQ(fields[1], "80");
    EXPECT_EQ(fields[4],
              StrFormat("2015-01-%02d 12:00:00", static_cast<int>(i) + 1));
  }
  // The pixel payloads (the bulk of every object) never moved.
  EXPECT_LT(transferred * 100, total_image_bytes);
}

TEST_F(ExtensionClusterTest, DataFrameApiMatchesSql) {
  CsvSourceOptions options;
  session_->RegisterCsvTable("meters", "meters", "m", schema_, true, options);
  DataFrame df(&session_->spark(), "meters");
  auto df_result = df.Select({"city", "sum(index) AS total"})
                       .Where("city LIKE 'R%'")
                       .Where("vid >= 1000")
                       .GroupBy({"city"})
                       .Having("count(*) > 1")
                       .OrderBy("city")
                       .Limit(10)
                       .Collect();
  ASSERT_TRUE(df_result.ok()) << df_result.status();

  auto sql_result = session_->Sql(
      "SELECT city, sum(index) AS total FROM meters "
      "WHERE (city LIKE 'R%') AND (vid >= 1000) GROUP BY city "
      "HAVING count(*) > 1 ORDER BY city LIMIT 10");
  ASSERT_TRUE(sql_result.ok());
  EXPECT_EQ(df_result->table.ToCsv(), sql_result->table.ToCsv());
  EXPECT_FALSE(df_result->table.rows.empty());

  auto explain = DataFrame(&session_->spark(), "meters")
                     .Select({"vid"})
                     .Where("city LIKE 'Paris'")
                     .Explain();
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("pushed filter"), std::string::npos);
}

TEST(DataFrameSqlTest, ToSqlComposition) {
  SparkSession session(1);
  DataFrame df(&session, "t");
  EXPECT_EQ(DataFrame(&session, "t").ToSql(), "SELECT * FROM t");
  EXPECT_EQ(DataFrame(&session, "t")
                .Select({"a", "b AS c"})
                .Where("a > 1")
                .OrderBy("a", true)
                .Limit(5)
                .ToSql(),
            "SELECT a, b AS c FROM t WHERE (a > 1) ORDER BY a DESC LIMIT 5");
  // Unknown table surfaces from Collect, not from building.
  EXPECT_TRUE(df.Collect().status().IsNotFound());
}

}  // namespace
}  // namespace scoop
