/**
 * @file
 * io tests: JSON value semantics, writer/parser round trips, exact
 * integer preservation, CampaignResult serialization (with and
 * without the optional ground-truth fields), and ResultStore
 * load/save/lookup/merge with deterministic on-disk bytes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "base/logging.hh"
#include "io/journal.hh"
#include "io/json.hh"
#include "io/result_store.hh"
#include "mutants.hh"

namespace merlin::io
{
namespace
{

using core::CampaignResult;
using core::HomogeneityReport;
using faultsim::Outcome;

// ------------------------------------------------------------- Json

TEST(Json, ScalarsRoundTrip)
{
    EXPECT_EQ(Json::parse("null").dump(), "null");
    EXPECT_EQ(Json::parse("true").dump(), "true");
    EXPECT_EQ(Json::parse("false").dump(), "false");
    EXPECT_EQ(Json::parse("42").dump(), "42");
    EXPECT_EQ(Json::parse("-7").dump(), "-7");
    EXPECT_EQ(Json::parse("\"hi\"").dump(), "\"hi\"");
}

TEST(Json, SixtyFourBitIntegersAreExact)
{
    // 2^64 - 1 and INT64_MIN survive a round trip unchanged — they
    // would not through a double.
    const std::string big = "18446744073709551615";
    EXPECT_EQ(Json::parse(big).asU64(), 18446744073709551615ULL);
    EXPECT_EQ(Json::parse(big).dump(), big);
    const std::string neg = "-9223372036854775808";
    EXPECT_EQ(Json::parse(neg).asI64(), INT64_MIN);
    EXPECT_EQ(Json::parse(neg).dump(), neg);
}

TEST(Json, DoublesUseShortestRoundTrip)
{
    Json j(0.1);
    EXPECT_EQ(j.dump(), "0.1");
    EXPECT_DOUBLE_EQ(Json::parse(j.dump()).asDouble(), 0.1);
    // A value with no short decimal form still round-trips exactly.
    const double ugly = 2.0 / 3.0;
    EXPECT_DOUBLE_EQ(Json::parse(Json(ugly).dump()).asDouble(), ugly);
}

TEST(Json, NonFiniteDoublesSerializeAsNull)
{
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(),
              "null");
}

TEST(Json, StringEscapes)
{
    Json j(std::string("a\"b\\c\nd\te\x01"));
    const std::string dumped = j.dump();
    EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    EXPECT_EQ(Json::parse(dumped).asString(), j.asString());
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    EXPECT_EQ(Json::parse("\"\\u00e9\"").asString(), "\xc3\xa9");
    // Surrogate pair: U+1F600.
    EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, ObjectsPreserveInsertionOrder)
{
    Json j = Json::object();
    j.set("zebra", 1);
    j.set("alpha", 2);
    EXPECT_EQ(j.dump(), "{\"zebra\":1,\"alpha\":2}");
    // set() on an existing key replaces in place, keeping the order.
    j.set("zebra", 3);
    EXPECT_EQ(j.dump(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(Json, NestedStructuresRoundTrip)
{
    const std::string text =
        "{\"a\":[1,2.5,\"x\",null,true],\"b\":{\"c\":[]},\"d\":{}}";
    Json j = Json::parse(text);
    EXPECT_EQ(j.dump(), text);
    EXPECT_EQ(j.at("a").size(), 5u);
    EXPECT_EQ(j.at("a")[0].asU64(), 1u);
    EXPECT_TRUE(j.at("b").at("c").isArray());
    // dump(parse(dump)) is a fixed point — the determinism property.
    EXPECT_EQ(Json::parse(j.dump(2)).dump(2), j.dump(2));
}

TEST(Json, TolerantLookupsUseDefaults)
{
    Json j = Json::parse("{\"n\":3,\"s\":\"x\"}");
    EXPECT_EQ(j.u64Or("n", 9), 3u);
    EXPECT_EQ(j.u64Or("missing", 9), 9u);
    EXPECT_EQ(j.strOr("s", "d"), "x");
    EXPECT_EQ(j.strOr("n", "d"), "d"); // wrong type -> default
    EXPECT_FALSE(j.find("missing"));
}

TEST(Json, MalformedInputThrows)
{
    EXPECT_THROW(Json::parse(""), FatalError);
    EXPECT_THROW(Json::parse("{"), FatalError);
    EXPECT_THROW(Json::parse("[1,]"), FatalError);
    EXPECT_THROW(Json::parse("tru"), FatalError);
    EXPECT_THROW(Json::parse("\"unterminated"), FatalError);
    EXPECT_THROW(Json::parse("1 2"), FatalError);
    EXPECT_THROW(Json::parse("{\"a\":1,}"), FatalError);
}

TEST(Json, TypeMismatchesThrow)
{
    Json j = Json::parse("{\"a\":1}");
    EXPECT_THROW(j.at("b"), FatalError);
    EXPECT_THROW(j.at("a").asString(), FatalError);
    EXPECT_THROW(Json::parse("-1").asU64(), FatalError);
}

// Fuzz-ish negative coverage: every input below once either crashed,
// silently lost data, or silently accepted non-JSON.  All must throw
// (never crash, never mangle).

TEST(JsonFuzz, TruncatedInputsThrowAtEveryPrefix)
{
    const std::string doc =
        "{\"a\":[1,-2.5e3,\"x\\u00e9\",null,true],\"b\":{\"c\":false}}";
    // Parse of the full document succeeds...
    EXPECT_EQ(Json::parse(doc).at("a").size(), 5u);
    // ...and every strict prefix fails cleanly.
    for (std::size_t n = 0; n < doc.size(); ++n) {
        EXPECT_THROW(Json::parse(doc.substr(0, n)), FatalError)
            << "prefix length " << n;
    }
}

TEST(JsonFuzz, DuplicateObjectKeysAreRejected)
{
    // "Last one wins" would make the parsed value depend on member
    // order — reject instead.
    EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), FatalError);
    EXPECT_THROW(Json::parse("{\"x\":{\"k\":1,\"k\":1}}"), FatalError);
    // Same key at different nesting levels is fine.
    EXPECT_EQ(Json::parse("{\"a\":{\"a\":1}}").at("a").at("a").asU64(),
              1u);
}

TEST(JsonFuzz, SixtyFourBitBoundaries)
{
    // The exact edges round-trip as integers...
    EXPECT_EQ(Json::parse("18446744073709551615").asU64(), UINT64_MAX);
    EXPECT_EQ(Json::parse("-9223372036854775808").asI64(), INT64_MIN);
    // ...one past the edge overflows into a double (lossy but legal
    // JSON), and must say so when asked for an exact integer.
    const Json past_u64 = Json::parse("18446744073709551616");
    EXPECT_TRUE(past_u64.isNumber());
    EXPECT_DOUBLE_EQ(past_u64.asDouble(), 18446744073709551616.0);
    EXPECT_THROW(past_u64.asU64(), FatalError);
    const Json past_i64 = Json::parse("-9223372036854775809");
    EXPECT_THROW(past_i64.asI64(), FatalError);
    EXPECT_DOUBLE_EQ(past_i64.asDouble(), -9223372036854775809.0);
}

TEST(JsonFuzz, NanAndInfinityAreRejected)
{
    for (const char *bad :
         {"NaN", "nan", "Infinity", "-Infinity", "inf", "-inf",
          "[1,NaN]", "{\"x\":Infinity}"})
        EXPECT_THROW(Json::parse(bad), FatalError) << bad;
    // Overflowing literals would materialize +-Inf through strtod;
    // they must be rejected at the boundary, not dumped back as null.
    EXPECT_THROW(Json::parse("1e999"), FatalError);
    EXPECT_THROW(Json::parse("-1e999"), FatalError);
    EXPECT_THROW(Json::parse("[1e400]"), FatalError);
}

TEST(JsonFuzz, MalformedNumbersThrow)
{
    for (const char *bad : {"-", "+1", "1.2.3", "1e", "1e+", "--1",
                            "0x10", "1f", ".5", "2."})
        EXPECT_THROW(Json::parse(bad), FatalError) << bad;
}

TEST(JsonFuzz, PathologicalNestingIsAnErrorNotAStackOverflow)
{
    // Past the depth cap: must throw, not crash.
    const std::string deep_arrays(10'000, '[');
    EXPECT_THROW(Json::parse(deep_arrays), FatalError);
    std::string deep_objects;
    for (int i = 0; i < 10'000; ++i)
        deep_objects += "{\"a\":";
    EXPECT_THROW(Json::parse(deep_objects), FatalError);
    // At half the cap: parses fine (closed properly).
    const int ok_depth = Json::kMaxParseDepth / 2;
    std::string ok(static_cast<std::size_t>(ok_depth), '[');
    ok += "1";
    ok.append(static_cast<std::size_t>(ok_depth), ']');
    EXPECT_EQ(Json::parse(ok).size(), 1u);
}

// ------------------------------------------- CampaignResult <-> JSON

CampaignResult
sampleResult(bool with_truth)
{
    CampaignResult r;
    r.goldenCycles = 123456;
    r.goldenInstret = 65432;
    r.aceAvf = 0.0625;
    r.initialFaults = 60000;
    r.aceMasked = 55000;
    r.survivors = 5000;
    r.numGroups = 300;
    r.injections = 310;
    r.merlinEstimate.add(Outcome::Masked, 58000);
    r.merlinEstimate.add(Outcome::SDC, 1200);
    r.merlinEstimate.add(Outcome::DUE, 500);
    r.merlinEstimate.add(Outcome::Crash, 300);
    r.merlinSurvivorEstimate.add(Outcome::Masked, 3000);
    r.merlinSurvivorEstimate.add(Outcome::SDC, 2000);
    r.speedupAce = 12.0;
    r.speedupTotal = 193.5;
    if (with_truth) {
        core::ClassCounts truth;
        truth.add(Outcome::Masked, 2900);
        truth.add(Outcome::SDC, 2050);
        truth.add(Outcome::Timeout, 30);
        truth.add(Outcome::Unknown, 20);
        r.survivorTruth = truth;
        HomogeneityReport h;
        h.fine = 0.93;
        h.coarse = 0.97;
        h.perfectFraction = 0.82;
        h.groups = 300;
        h.faults = 5000;
        h.avgGroupSize = 16.67;
        r.homogeneity = h;
        r.groupModels = {{100, 0.25}, {50, 0.0}, {1, 1.0}};
    }
    return r;
}

void
expectSameResult(const CampaignResult &a, const CampaignResult &b)
{
    EXPECT_EQ(a.goldenCycles, b.goldenCycles);
    EXPECT_EQ(a.goldenInstret, b.goldenInstret);
    EXPECT_DOUBLE_EQ(a.aceAvf, b.aceAvf);
    EXPECT_EQ(a.initialFaults, b.initialFaults);
    EXPECT_EQ(a.aceMasked, b.aceMasked);
    EXPECT_EQ(a.survivors, b.survivors);
    EXPECT_EQ(a.numGroups, b.numGroups);
    EXPECT_EQ(a.injections, b.injections);
    EXPECT_EQ(a.merlinEstimate.counts, b.merlinEstimate.counts);
    EXPECT_EQ(a.merlinSurvivorEstimate.counts,
              b.merlinSurvivorEstimate.counts);
    ASSERT_EQ(a.survivorTruth.has_value(), b.survivorTruth.has_value());
    if (a.survivorTruth) {
        EXPECT_EQ(a.survivorTruth->counts, b.survivorTruth->counts);
    }
    ASSERT_EQ(a.homogeneity.has_value(), b.homogeneity.has_value());
    if (a.homogeneity) {
        EXPECT_DOUBLE_EQ(a.homogeneity->fine, b.homogeneity->fine);
        EXPECT_DOUBLE_EQ(a.homogeneity->coarse, b.homogeneity->coarse);
        EXPECT_DOUBLE_EQ(a.homogeneity->perfectFraction,
                         b.homogeneity->perfectFraction);
        EXPECT_EQ(a.homogeneity->groups, b.homogeneity->groups);
        EXPECT_EQ(a.homogeneity->faults, b.homogeneity->faults);
        EXPECT_DOUBLE_EQ(a.homogeneity->avgGroupSize,
                         b.homogeneity->avgGroupSize);
    }
    ASSERT_EQ(a.groupModels.size(), b.groupModels.size());
    for (std::size_t i = 0; i < a.groupModels.size(); ++i) {
        EXPECT_EQ(a.groupModels[i].size, b.groupModels[i].size);
        EXPECT_DOUBLE_EQ(a.groupModels[i].pNonMasked,
                         b.groupModels[i].pNonMasked);
    }
    EXPECT_DOUBLE_EQ(a.speedupAce, b.speedupAce);
    EXPECT_DOUBLE_EQ(a.speedupTotal, b.speedupTotal);
}

TEST(ResultJson, RoundTripWithoutOptionals)
{
    const CampaignResult r = sampleResult(false);
    const Json j = resultToJson(r);
    EXPECT_FALSE(j.find("survivor_truth"));
    EXPECT_FALSE(j.find("homogeneity"));
    EXPECT_FALSE(j.find("group_models"));
    expectSameResult(r, resultFromJson(Json::parse(j.dump(2))));
}

TEST(ResultJson, RoundTripWithTruthAndHomogeneity)
{
    const CampaignResult r = sampleResult(true);
    expectSameResult(
        r, resultFromJson(Json::parse(resultToJson(r).dump())));
}

TEST(ResultJson, MalformedResultThrows)
{
    Json j = resultToJson(sampleResult(false));
    Json truncated = Json::object();
    truncated.set("golden_cycles", 1);
    EXPECT_THROW(resultFromJson(truncated), FatalError);
}

// ----------------------------------------------------- ResultStore

class StoreFixture : public ::testing::Test
{
  protected:
    std::string
    path(const char *name) const
    {
        return testing::TempDir() + "merlin_" + name + ".json";
    }

    void
    TearDown() override
    {
        // remove_all: some tests track directories, not files.
        for (const std::string &p : created_) {
            std::error_code ec;
            std::filesystem::remove_all(p, ec);
        }
    }

    std::string
    track(const std::string &p)
    {
        created_.push_back(p);
        return p;
    }

    static std::string
    storeText(const std::string &p)
    {
        std::ifstream in(p);
        EXPECT_TRUE(in.good()) << p;
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

    std::vector<std::string> created_;
};

TEST_F(StoreFixture, SaveLoadLookupRoundTrip)
{
    const std::string p = track(path("roundtrip"));
    {
        ResultStore store(p);
        store.put("k1", Json::object(), sampleResult(true));
        store.put("k2", Json::object(), sampleResult(false));
        store.save();
    }
    ResultStore loaded(p);
    ASSERT_TRUE(loaded.load());
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_TRUE(loaded.contains("k1"));
    EXPECT_FALSE(loaded.contains("k3"));
    CampaignResult out;
    ASSERT_TRUE(loaded.lookup("k1", out));
    expectSameResult(sampleResult(true), out);
    EXPECT_FALSE(loaded.lookup("k3", out));
}

TEST_F(StoreFixture, MissingFileLoadsAsFresh)
{
    ResultStore store(path("nonexistent"));
    EXPECT_FALSE(store.load());
    EXPECT_EQ(store.size(), 0u);
}

TEST_F(StoreFixture, MalformedFileIsFatalNotSilent)
{
    const std::string p = track(path("corrupt"));
    std::ofstream(p) << "{\"format\":\"merlin-store-v3\","
                        "\"campaigns\":{\"k\":{}}}";
    ResultStore store(p);
    EXPECT_THROW(store.load(), FatalError);
    std::ofstream(p) << "not json at all";
    EXPECT_THROW(store.load(), FatalError);
}

TEST_F(StoreFixture, TruncatedStoresAreDiagnosedByName)
{
    // The two shapes an interrupted save can leave.  Both must fail
    // with a message that names the store file and the likely cause,
    // not a bare JSON parse error at offset 0.
    const std::string p = track(path("truncated"));
    std::ofstream(p) << ""; // zero-length
    ResultStore store(p);
    try {
        store.load();
        FAIL() << "empty store loaded";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(p), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("empty"),
                  std::string::npos);
    }
    std::ofstream(p) << "   \n\t"; // whitespace-only counts as empty
    EXPECT_THROW(store.load(), FatalError);
    // A valid prefix cut mid-write: unparseable, with the path named.
    std::ofstream(p) << "{\"format\":\"merlin-store-v3\",\"campa";
    try {
        store.load();
        FAIL() << "truncated store loaded";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(p), std::string::npos);
    }
}

TEST_F(StoreFixture, DirectoryAtStorePathIsDiagnosedAsPathMixUp)
{
    // A directory passed where the store FILE belongs (to --out, or
    // to `store merge`): it opens "successfully" and reads nothing, so
    // without a dedicated check this would be blamed on a truncated
    // save.  The diagnosis must name the path and say it is a
    // directory.
    const std::string p = track(testing::TempDir() + "merlin_dirstore");
    std::filesystem::create_directory(p);
    ResultStore store(p);
    try {
        store.load();
        FAIL() << "directory loaded as a store";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(p), std::string::npos);
        EXPECT_NE(what.find("is a directory"), std::string::npos);
    }
}

TEST_F(StoreFixture, SaveFailureIsFatalNotSilent)
{
    // A store whose temp file cannot be created must throw, not
    // quietly skip persistence.
    ResultStore store(testing::TempDir() +
                      "no_such_dir_merlin/store.json");
    store.put("k", Json::object(), sampleResult(false));
    EXPECT_THROW(store.save(), FatalError);
}

TEST_F(StoreFixture, EraseRemovesEntries)
{
    ResultStore store;
    store.put("a", Json::object(), sampleResult(false));
    store.put("b", Json::object(), sampleResult(false));
    EXPECT_TRUE(store.erase("a"));
    EXPECT_FALSE(store.erase("a"));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.contains("b"));
}

TEST_F(StoreFixture, GatherMergesWorkerStoresAndRejectsGaps)
{
    // Two worker stores fold into one.
    const std::string w0 = track(path("worker0"));
    const std::string w1 = track(path("worker1"));
    {
        ResultStore s(w0);
        s.put("k1", Json::object(), sampleResult(false));
        s.save();
    }
    {
        ResultStore s(w1);
        s.put("k2", Json::object(), sampleResult(false));
        s.put("k3", Json::object(), sampleResult(true));
        s.save();
    }
    ResultStore merged;
    const auto stats = mergeStoreFiles(merged, {w0, w1});
    EXPECT_EQ(stats.added, 3u);
    EXPECT_EQ(merged.size(), 3u);

    // A missing input is a gather error, named — a silently skipped
    // worker would yield an incomplete store.
    const std::string missing = path("no_such_input");
    try {
        mergeStoreFiles(merged, {w0, missing});
        FAIL() << "missing input merged";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
    }
}

TEST_F(StoreFixture, OverlappingIdenticalPayloadsAreIdempotent)
{
    ResultStore a, b;
    a.put("shared", Json::object(), sampleResult(false));
    b.put("shared", Json::object(), sampleResult(false));
    b.put("theirs", Json::object(), sampleResult(true));

    const auto stats = a.merge(b);
    EXPECT_EQ(stats.added, 1u);
    EXPECT_EQ(stats.identical, 1u);
    EXPECT_EQ(stats.replaced, 0u);
    EXPECT_EQ(a.size(), 2u);
}

TEST_F(StoreFixture, ConflictingPayloadsAreFatalUnlessForced)
{
    // Same key, different result bytes: a real divergence, never a
    // silent pick.
    CampaignResult theirs = sampleResult(false);
    theirs.injections = 9999;
    ResultStore a, b;
    a.put("shared", Json::object(), sampleResult(false));
    b.put("shared", Json::object(), theirs);

    EXPECT_THROW(a.merge(b), FatalError);

    const auto stats = a.merge(b, /*force_theirs=*/true);
    EXPECT_EQ(stats.replaced, 1u);
    CampaignResult out;
    ASSERT_TRUE(a.lookup("shared", out));
    EXPECT_EQ(out.injections, 9999u);
}

TEST_F(StoreFixture, MergeOrderDoesNotChangeTheBytes)
{
    const auto one = [](const char *key, bool with_truth) {
        ResultStore s;
        s.put(key, Json::object(), sampleResult(with_truth));
        return s;
    };
    const ResultStore s1 = one("k1", false);
    const ResultStore s2 = one("k2", true);
    const ResultStore s3 = one("k3", false);

    ResultStore fwd(track(path("merge_fwd"))), rev(track(path("merge_rev")));
    fwd.merge(s1);
    fwd.merge(s2);
    fwd.merge(s3);
    rev.merge(s3);
    rev.merge(s2);
    rev.merge(s1);
    fwd.save();
    rev.save();
    EXPECT_EQ(storeText(fwd.path()), storeText(rev.path()));
}

TEST_F(StoreFixture, SerializationIsIndependentOfInsertionOrder)
{
    const std::string pa = track(path("order_a"));
    const std::string pb = track(path("order_b"));
    ResultStore a(pa), b(pb);
    a.put("x", Json::object(), sampleResult(false));
    a.put("m", Json::object(), sampleResult(true));
    a.put("a", Json::object(), sampleResult(false));
    b.put("a", Json::object(), sampleResult(false));
    b.put("x", Json::object(), sampleResult(false));
    b.put("m", Json::object(), sampleResult(true));
    EXPECT_EQ(a.toJson().dump(2), b.toJson().dump(2));
}

TEST_F(StoreFixture, MemoryOnlyStoreSkipsIo)
{
    ResultStore store; // no path
    store.put("k", Json::object(), sampleResult(false));
    store.save(); // must not touch the filesystem or throw
    EXPECT_FALSE(store.load());
    CampaignResult out;
    EXPECT_TRUE(store.lookup("k", out));
}

// ------------------------------------------ quarantine serialization

TEST(ResultJson, QuarantineRoundTripsAndIsOmittedWhenEmpty)
{
    CampaignResult r = sampleResult(false);
    // A clean campaign serializes without the member at all, so the
    // quarantine feature cannot move a byte of pre-existing stores.
    EXPECT_FALSE(resultToJson(r).find("quarantine"));

    r.quarantine.push_back({0x1234, "simulator exception: boom"});
    r.quarantine.push_back({0xffff'ffff'ffff'ffffull, "wall clock"});
    const Json j = resultToJson(r);
    ASSERT_TRUE(j.find("quarantine"));
    const CampaignResult back = resultFromJson(Json::parse(j.dump(2)));
    ASSERT_EQ(back.quarantine.size(), 2u);
    EXPECT_TRUE(back.quarantine[0] == r.quarantine[0]);
    EXPECT_TRUE(back.quarantine[1] == r.quarantine[1]);
}

/**
 * A quarantine record is exactly {fault_key, reason}: a store holding
 * any other shape is refused with an error naming the foreign member,
 * never served with fewer records than its Crash count includes.
 */
TEST_F(StoreFixture, UnrecognizedQuarantineRecordIsRefusedByName)
{
    const std::string p = track(path("quarantine_foreign"));
    {
        ResultStore store(p);
        CampaignResult r = sampleResult(false);
        r.quarantine.push_back({1, "known"});
        store.put("k1", Json::object(), r);
        store.save();
    }
    std::string text = storeText(p);
    const std::string marker = "\"quarantine\": [";
    const std::size_t at = text.find(marker);
    ASSERT_NE(at, std::string::npos);
    text.insert(at + marker.size(), "{\"future_field\": 9},");
    std::ofstream(p, std::ios::trunc) << text;

    ResultStore loaded(p);
    try {
        loaded.load();
        ADD_FAILURE() << "store with a foreign quarantine record loaded";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'future_field'"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Files of the retired formats — stores keyed by engine knobs and
 * carrying engine provenance, journals with per-run engine fields —
 * are refused with an error naming the format they declare, never
 * read.
 */
TEST_F(StoreFixture, RetiredFormatsAreRefusedByName)
{
    for (const std::string retired : {"results-v1", "store-v2"}) {
        const std::string format = "merlin-" + retired;
        const std::string p = track(path(retired.c_str()));
        std::ofstream(p, std::ios::trunc)
            << "{\"format\": \"" << format << "\", \"campaigns\": {}}\n";
        ResultStore store(p);
        try {
            store.load();
            ADD_FAILURE() << format << " store loaded";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(format),
                      std::string::npos)
                << e.what();
        }
    }

    const std::string j = track(path("journal-v1"));
    std::ofstream(j, std::ios::trunc)
        << "{\"format\":\"merlin-journal-v1\",\"spec\":\"spec-a\"}\n"
        << "[1,0,0,0,0,0]\n";
    OutcomeJournal journal(j, "spec-a");
    try {
        journal.restore([](std::uint64_t, faultsim::Outcome) {});
        ADD_FAILURE() << "merlin-journal-v1 journal restored";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("merlin-journal-v1"),
                  std::string::npos)
            << e.what();
    }
}

// ------------------------------------------------- OutcomeJournal

class JournalFixture : public StoreFixture
{
  protected:
    std::string
    journalPath(const char *name)
    {
        return track(testing::TempDir() + "merlin_journal_" + name);
    }

    /** restore() into a key->outcome map; returns the quarantine. */
    std::vector<faultsim::QuarantineRecord>
    restoreAll(OutcomeJournal &j,
               std::map<std::uint64_t, faultsim::Outcome> &seen)
    {
        return j.restore([&](std::uint64_t key, faultsim::Outcome o) {
            seen[key] = o;
        });
    }
};

TEST_F(JournalFixture, AppendRestoreRoundTrip)
{
    const std::string p = journalPath("roundtrip");
    faultsim::InjectDetail plain;
    faultsim::InjectDetail sick;
    sick.quarantined = true;
    sick.reason = "simulator exception: boom";
    {
        OutcomeJournal j(p, "spec-a");
        std::map<std::uint64_t, faultsim::Outcome> none;
        // Missing file: a fresh start.
        EXPECT_TRUE(restoreAll(j, none).empty());
        EXPECT_TRUE(none.empty());
        j.open();
        j.append(1, faultsim::Outcome::Masked, plain);
        j.append(2, faultsim::Outcome::SDC, plain);
        j.append(3, faultsim::Outcome::Crash, sick);
        j.close();
    }
    // Entries are [key, outcome] or [key, outcome, reason].
    const std::string text = storeText(p);
    EXPECT_NE(text.find("\n[1,0]\n"), std::string::npos) << text;
    EXPECT_NE(text.find("[3,"), std::string::npos) << text;
    OutcomeJournal j(p, "spec-a");
    std::map<std::uint64_t, faultsim::Outcome> seen;
    const auto quarantine = restoreAll(j, seen);
    ASSERT_EQ(quarantine.size(), 1u);
    EXPECT_EQ(quarantine[0].faultKey, 3u);
    EXPECT_EQ(quarantine[0].reason, sick.reason);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[1], faultsim::Outcome::Masked);
    EXPECT_EQ(seen[2], faultsim::Outcome::SDC);
    EXPECT_EQ(seen[3], faultsim::Outcome::Crash);
}

TEST_F(JournalFixture, TornFinalLineIsTruncatedAndAppendsResume)
{
    const std::string p = journalPath("torn");
    {
        OutcomeJournal j(p, "spec-a");
        j.open();
        j.append(1, faultsim::Outcome::Masked, {});
        j.append(2, faultsim::Outcome::DUE, {});
        j.close();
    }
    const auto whole = std::filesystem::file_size(p);
    {
        // The mid-append crash artifact: a final line with no newline.
        std::ofstream app(p, std::ios::app | std::ios::binary);
        app << "[3, 1";
    }
    {
        OutcomeJournal j(p, "spec-a");
        std::map<std::uint64_t, faultsim::Outcome> seen;
        restoreAll(j, seen);
        EXPECT_EQ(seen.size(), 2u); // the torn entry re-runs
        EXPECT_EQ(seen.count(3), 0u);
        // The torn bytes are gone, so a resumed run appends after a
        // well-formed prefix...
        EXPECT_EQ(std::filesystem::file_size(p), whole);
        j.open();
        j.append(3, faultsim::Outcome::SDC, {});
        j.close();
    }
    // ...and the next restore sees all three.
    OutcomeJournal j(p, "spec-a");
    std::map<std::uint64_t, faultsim::Outcome> seen;
    restoreAll(j, seen);
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[3], faultsim::Outcome::SDC);
}

TEST_F(JournalFixture, TornHeaderStartsTheCampaignOver)
{
    const std::string p = journalPath("torn-header");
    {
        std::ofstream out(p, std::ios::binary);
        out << "{\"format\":\"merlin-jour"; // crashed mid-header
    }
    OutcomeJournal j(p, "spec-a");
    std::map<std::uint64_t, faultsim::Outcome> seen;
    restoreAll(j, seen);
    EXPECT_TRUE(seen.empty());
    // open() rewrites a good header; the journal is usable again.
    j.open();
    j.append(9, faultsim::Outcome::Timeout, {});
    j.close();
    OutcomeJournal again(p, "spec-a");
    restoreAll(again, seen);
    EXPECT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[9], faultsim::Outcome::Timeout);
}

TEST_F(JournalFixture, CompleteGarbageLineIsFatal)
{
    const std::string p = journalPath("corrupt");
    {
        OutcomeJournal j(p, "spec-a");
        j.open();
        j.close();
    }
    {
        std::ofstream app(p, std::ios::app | std::ios::binary);
        app << "not json\n"; // complete line => not a crash artifact
    }
    OutcomeJournal j(p, "spec-a");
    EXPECT_THROW(j.restore([](std::uint64_t, faultsim::Outcome) {}),
                 FatalError);
}

TEST_F(JournalFixture, SpecMismatchIsFatal)
{
    const std::string p = journalPath("mismatch");
    {
        OutcomeJournal j(p, "spec-a");
        j.open();
        j.append(1, faultsim::Outcome::Masked, {});
        j.close();
    }
    OutcomeJournal j(p, "spec-b");
    EXPECT_THROW(j.restore([](std::uint64_t, faultsim::Outcome) {}),
                 FatalError);
}

TEST_F(JournalFixture, OutcomeBeyondThisBuildIsFatal)
{
    const std::string p = journalPath("newer");
    {
        OutcomeJournal j(p, "spec-a");
        j.open();
        j.close();
    }
    {
        std::ofstream app(p, std::ios::app | std::ios::binary);
        app << "[1, 250]\n"; // outcome class a newer build added
    }
    OutcomeJournal j(p, "spec-a");
    EXPECT_THROW(j.restore([](std::uint64_t, faultsim::Outcome) {}),
                 FatalError);
}

TEST_F(JournalFixture, EmptyPathDisablesEveryOperation)
{
    OutcomeJournal j("", "spec-a");
    std::map<std::uint64_t, faultsim::Outcome> seen;
    EXPECT_TRUE(restoreAll(j, seen).empty());
    j.open();
    j.append(1, faultsim::Outcome::Masked, {});
    j.close();
    j.remove();
    EXPECT_TRUE(seen.empty());
}

TEST_F(JournalFixture, RemoveDeletesTheFile)
{
    const std::string p = journalPath("remove");
    OutcomeJournal j(p, "spec-a");
    j.open();
    j.append(1, faultsim::Outcome::Masked, {});
    j.remove();
    EXPECT_FALSE(std::filesystem::exists(p));
    j.remove(); // idempotent
}

// ------------------------------------------------- parser mutators

/** Write @p bytes to @p path verbatim. */
void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/**
 * Every strict prefix and every single-bit flip of a valid journal
 * (header plus entries, one quarantined) either restores or fails with
 * FatalError.  Every prefix restores: a strict prefix ends at a line
 * boundary or in a torn final line, which restore() truncates by
 * design.
 */
TEST_F(JournalFixture, MutantsRestoreOrFailCleanly)
{
    const std::string p = journalPath("mutants");
    {
        OutcomeJournal j(p, "spec-a");
        j.open();
        faultsim::InjectDetail plain;
        faultsim::InjectDetail sick;
        sick.quarantined = true;
        sick.reason = "simulator exception: boom";
        j.append(1, faultsim::Outcome::Masked, plain);
        j.append(0x123456789abcULL, faultsim::Outcome::SDC, plain);
        j.append(3, faultsim::Outcome::Crash, sick);
        j.append(4, faultsim::Outcome::Timeout, plain);
        j.close();
    }
    const std::string doc = storeText(p);
    const auto restore = [&p](const std::string &bytes) {
        writeBytes(p, bytes);
        OutcomeJournal j(p, "spec-a");
        j.restore([](std::uint64_t, faultsim::Outcome) {});
    };
    restore(doc);

    const test::MutantTally prefixes = test::feedPrefixes(doc, restore);
    EXPECT_EQ(prefixes.accepted, doc.size());
    const test::MutantTally flips = test::feedBitFlips(doc, restore);
    EXPECT_GT(flips.rejected, 0u);
    EXPECT_EQ(flips.accepted + flips.rejected, doc.size() * 8);
}

/**
 * Every strict prefix and every single-bit flip of a valid store file
 * either loads or fails with FatalError.
 */
TEST_F(StoreFixture, MutantsLoadOrFailCleanly)
{
    const std::string p = track(path("mutants"));
    {
        ResultStore store(p);
        store.put("k1", Json::object(), sampleResult(true));
        store.save();
    }
    const std::string doc = storeText(p);
    const auto load = [&p](const std::string &bytes) {
        writeBytes(p, bytes);
        ResultStore store(p);
        store.load();
    };
    load(doc);

    // A strict prefix is a torn document, except the one that only
    // drops trailing whitespace.
    const test::MutantTally prefixes = test::feedPrefixes(doc, load);
    EXPECT_LE(prefixes.accepted, 1u);
    EXPECT_GE(prefixes.rejected, doc.size() - 1);
    const test::MutantTally flips = test::feedBitFlips(doc, load);
    EXPECT_GT(flips.rejected, 0u);
    EXPECT_EQ(flips.accepted + flips.rejected, doc.size() * 8);
}

} // namespace
} // namespace merlin::io
