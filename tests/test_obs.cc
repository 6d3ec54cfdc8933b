/**
 * @file
 * Observability tests: metrics registry semantics (sharded counters,
 * gauges, log2 histograms, order-independent merge, deterministic
 * snapshot order), the clock override seam, trace span collection and
 * trace_event serialization, the progress sink, and the headline
 * telemetry guarantee — suite store bytes identical with tracing,
 * metrics and progress on or off, at any job count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "io/journal.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"
#include "sched/suite.hh"

namespace merlin::obs
{
namespace
{

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ------------------------------------------------------------ Counter

TEST(Counter, CountsAcrossThreads)
{
    Counter c;
    EXPECT_EQ(c.total(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.total(), 42u);

    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < 1000; ++i)
                c.add();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.total(), 42u + 8 * 1000u);

    c.reset();
    EXPECT_EQ(c.total(), 0u);
}

// -------------------------------------------------------------- Gauge

TEST(Gauge, TracksLastValueAndMax)
{
    Gauge g;
    GaugeSnapshot s = g.snapshot();
    EXPECT_EQ(s.sets, 0u);
    EXPECT_EQ(s.value, 0.0);
    EXPECT_EQ(s.max, 0.0);

    g.set(3.5);
    g.set(9.25);
    g.set(1.0);
    s = g.snapshot();
    EXPECT_EQ(s.sets, 3u);
    EXPECT_EQ(s.value, 1.0);
    EXPECT_EQ(s.max, 9.25);

    g.reset();
    s = g.snapshot();
    EXPECT_EQ(s.sets, 0u);
    EXPECT_EQ(s.value, 0.0);
}

// ---------------------------------------------------------- Histogram

TEST(Histogram, BucketsByBitWidth)
{
    Histogram h;
    h.observe(0);  // bucket 0
    h.observe(1);  // bucket 1: [1, 2)
    h.observe(2);  // bucket 2: [2, 4)
    h.observe(3);  // bucket 2
    h.observe(4);  // bucket 3: [4, 8)
    h.observe(1000); // bucket 10: [512, 1024)

    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 6u);
    EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 4 + 1000);
    EXPECT_EQ(s.min, 0u);
    EXPECT_EQ(s.max, 1000u);
    EXPECT_EQ(s.buckets[0], 1u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[2], 2u);
    EXPECT_EQ(s.buckets[3], 1u);
    EXPECT_EQ(s.buckets[10], 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 1010.0 / 6.0);
}

TEST(Histogram, ObservesFromManyThreads)
{
    Histogram h;
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&h, t] {
            for (int i = 0; i < 500; ++i)
                h.observe(static_cast<std::uint64_t>(t * 500 + i));
        });
    }
    for (auto &t : threads)
        t.join();
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 4000u);
    EXPECT_EQ(s.min, 0u);
    EXPECT_EQ(s.max, 3999u);
    std::uint64_t bucket_total = 0;
    for (std::uint64_t b : s.buckets)
        bucket_total += b;
    EXPECT_EQ(bucket_total, s.count);
}

TEST(Histogram, MergeIsOrderIndependent)
{
    Histogram a, b, c;
    for (std::uint64_t v : {0ull, 7ull, 300ull})
        a.observe(v);
    for (std::uint64_t v : {12ull, 12ull, 4096ull, 1ull})
        b.observe(v);
    c.observe(1ull << 40);

    const HistogramSnapshot sa = a.snapshot();
    const HistogramSnapshot sb = b.snapshot();
    const HistogramSnapshot sc = c.snapshot();

    HistogramSnapshot abc = sa;
    abc.merge(sb);
    abc.merge(sc);
    HistogramSnapshot cba = sc;
    cba.merge(sb);
    cba.merge(sa);
    // Also fold an empty snapshot in: the identity element.
    cba.merge(HistogramSnapshot{});

    EXPECT_EQ(abc.count, cba.count);
    EXPECT_EQ(abc.sum, cba.sum);
    EXPECT_EQ(abc.min, cba.min);
    EXPECT_EQ(abc.max, cba.max);
    EXPECT_EQ(abc.buckets, cba.buckets);
    EXPECT_EQ(abc.count, 8u);
    EXPECT_EQ(abc.min, 0u);
    EXPECT_EQ(abc.max, 1ull << 40);
}

// ----------------------------------------------------------- Registry

TEST(Registry, SnapshotIsSortedByNameAndParsesAsJson)
{
    Registry reg;
    reg.counter("zeta").add(3);
    reg.counter("alpha").add(1);
    reg.gauge("mid").set(2.5);
    reg.histogram("lat_us").observe(100);
    reg.histogram("lat_us").observe(0);

    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "alpha");
    EXPECT_EQ(snap.counters[1].first, "zeta");
    EXPECT_EQ(snap.counters[1].second, 3u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].second.count, 2u);

    // The dump round-trips through the strict parser.
    const io::Json doc = io::Json::parse(snap.toJson().dump(2));
    EXPECT_EQ(doc.strOr("format", ""), "merlin-metrics-v1");
    EXPECT_EQ(doc.at("counters").at("alpha").asU64(), 1u);
    EXPECT_EQ(doc.at("gauges").at("mid").at("sets").asU64(), 1u);
    const io::Json &h = doc.at("histograms").at("lat_us");
    EXPECT_EQ(h.at("count").asU64(), 2u);
    EXPECT_EQ(h.at("max").asU64(), 100u);
    // Sparse [bucket_floor, count] pairs: 0 and 100's bucket only.
    EXPECT_EQ(h.at("buckets").size(), 2u);
}

TEST(Registry, HandlesStayValidAcrossReset)
{
    Registry reg;
    Counter &c = reg.counter("events");
    c.add(5);
    reg.reset();
    EXPECT_EQ(c.total(), 0u);
    c.add(2);
    EXPECT_EQ(reg.counter("events").total(), 2u);
    EXPECT_EQ(&reg.counter("events"), &c);
}

// -------------------------------------------------------------- Clock

TEST(Clock, OverrideIsTheTestSeam)
{
    const TimePoint epoch{};
    TimePoint fake = epoch + std::chrono::seconds(100);
    {
        ClockOverride ov([&fake] { return fake; });
        const TimePoint t0 = now();
        EXPECT_EQ(t0, fake);
        fake += std::chrono::milliseconds(2500);
        EXPECT_DOUBLE_EQ(secondsSince(t0), 2.5);
        EXPECT_EQ(microsSince(t0), 2'500'000u);
        // Clamped at zero when the clock moves backwards.
        fake = epoch + std::chrono::seconds(99);
        EXPECT_EQ(microsSince(t0), 0u);
    }
    // Restored: the real steady clock is monotonic and non-fake.
    const TimePoint a = now();
    const TimePoint b = now();
    EXPECT_LE(a, b);
}

// -------------------------------------------------------------- Trace

TEST(Trace, CollectsSpansAcrossThreadsAndSerializes)
{
    TraceWriter &w = TraceWriter::global();
    w.start(""); // collect only
    EXPECT_TRUE(w.enabled());
    {
        Span outer("sched", "suite.run");
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t) {
            threads.emplace_back([] {
                Span s("inject", "injection");
            });
        }
        for (auto &t : threads)
            t.join();
    }
    const io::Json doc = io::Json::parse(w.toJson().dump(2));
    const io::Json &events = doc.at("traceEvents");
    ASSERT_EQ(events.size(), 5u);
    for (const io::Json &e : events.items()) {
        EXPECT_EQ(e.strOr("ph", ""), "X");
        EXPECT_FALSE(e.strOr("name", "").empty());
        EXPECT_FALSE(e.strOr("cat", "").empty());
        e.at("pid").asU64();
        e.at("tid").asU64();
        e.at("ts").asU64();
        e.at("dur").asU64();
    }
    EXPECT_TRUE(w.finish());
    EXPECT_FALSE(w.enabled());
    // Finishing again without a start is a reported no-op.
    EXPECT_FALSE(w.finish());
}

TEST(Trace, SpansAreFreeWhenDisabled)
{
    ASSERT_FALSE(TraceWriter::global().enabled());
    {
        Span s("sched", "ignored");
    }
    TraceWriter::global().start("");
    const io::Json doc = TraceWriter::global().toJson();
    EXPECT_EQ(doc.at("traceEvents").size(), 0u);
    TraceWriter::global().finish();
}

TEST(Trace, WritesAValidFileAtomically)
{
    const std::string path = testing::TempDir() + "merlin_trace.json";
    TraceWriter::global().start(path);
    {
        Span s("io", "store.save");
    }
    ASSERT_TRUE(TraceWriter::global().finish());
    const io::Json doc = io::Json::parse(fileBytes(path));
    EXPECT_EQ(doc.at("traceEvents").size(), 1u);
    EXPECT_EQ(doc.strOr("displayTimeUnit", ""), "ms");
    std::remove(path.c_str());
}

// ----------------------------------------------------------- Progress

TEST(Progress, InertSinkCountsWithoutEmitting)
{
    ProgressSink sink;
    sink.campaignsTotal.store(4);
    sink.campaignsDone.store(2);
    sink.injections.store(100);
    const io::Json j = sink.toJson("running");
    EXPECT_EQ(j.strOr("format", ""), "merlin-progress-v1");
    EXPECT_EQ(j.strOr("state", ""), "running");
    EXPECT_EQ(j.at("campaigns").at("done").asU64(), 2u);
    EXPECT_EQ(j.at("injections").asU64(), 100u);
    sink.finish(); // nothing configured: a no-op
}

TEST(Progress, WritesFinalJsonOnFinish)
{
    const std::string path = testing::TempDir() + "merlin_progress.json";
    {
        ProgressSink::Options opts;
        opts.intervalSeconds = 3600.0; // only the final emit matters
        opts.jsonPath = path;
        ProgressSink sink(opts);
        sink.campaignsTotal.store(3);
        sink.campaignsDone.store(1);
        sink.injections.store(42);
        sink.finish();
    }
    const io::Json j = io::Json::parse(fileBytes(path));
    EXPECT_EQ(j.strOr("state", ""), "done");
    EXPECT_EQ(j.at("campaigns").at("total").asU64(), 3u);
    EXPECT_EQ(j.at("injections").asU64(), 42u);
    EXPECT_GT(j.at("epoch").asU64(), 0u);
    std::remove(path.c_str());
}

// ------------------------------------------- suite-level invariance

std::vector<sched::CampaignSpec>
invarianceSpecs()
{
    std::vector<sched::CampaignSpec> specs;
    sched::CampaignSpec s;
    s.workload = "qsort";
    s.structure = uarch::Structure::RegisterFile;
    s.sampling = core::specFixed(500);
    s.seed = 11;
    specs.push_back(s);
    s.workload = "fft";
    s.structure = uarch::Structure::StoreQueue;
    specs.push_back(s);
    return specs;
}

/**
 * The telemetry guarantee in testable form: store bytes are identical
 * with every telemetry channel on vs off, for jobs 1 and 4.  (The
 * per-campaign journals are removed on completion, so the store bytes
 * are the entire durable output.)
 */
TEST(TelemetryInvariance, StoreBytesIdenticalWithTelemetryOnOrOff)
{
    const auto specs = invarianceSpecs();
    std::string baseline;
    for (unsigned jobs : {1u, 4u}) {
        for (bool telemetry : {false, true}) {
            const std::string store =
                testing::TempDir() + "merlin_obs_suite.json";
            const std::string trace =
                testing::TempDir() + "merlin_obs_trace.json";
            const std::string progress =
                testing::TempDir() + "merlin_obs_progress.json";

            sched::SuiteOptions opts;
            opts.jobs = jobs;
            opts.storePath = store;
            if (telemetry) {
                TraceWriter::global().start(trace);
                opts.progressPath = progress;
                opts.progressInterval = 0.01;
            }
            sched::SuiteResult suite =
                sched::SuiteScheduler(specs, opts).run();
            EXPECT_EQ(suite.campaignsRun, specs.size());
            EXPECT_GT(suite.injectionsSimulated, 0u);

            const std::string bytes = fileBytes(store);
            std::remove(store.c_str());
            if (baseline.empty())
                baseline = bytes;
            else
                EXPECT_EQ(bytes, baseline)
                    << "jobs=" << jobs << " telemetry=" << telemetry;

            if (telemetry) {
                ASSERT_TRUE(TraceWriter::global().finish());
                // The trace parses and covers scheduler, campaign and
                // injection layers.
                const io::Json doc = io::Json::parse(fileBytes(trace));
                bool sched_cat = false, campaign_cat = false,
                     inject_cat = false;
                for (const io::Json &e :
                     doc.at("traceEvents").items()) {
                    const std::string cat = e.strOr("cat", "");
                    sched_cat = sched_cat || cat == "sched";
                    campaign_cat = campaign_cat || cat == "campaign";
                    inject_cat = inject_cat || cat == "inject";
                }
                EXPECT_TRUE(sched_cat);
                EXPECT_TRUE(campaign_cat);
                EXPECT_TRUE(inject_cat);
                std::remove(trace.c_str());

                const io::Json p =
                    io::Json::parse(fileBytes(progress));
                EXPECT_EQ(p.strOr("state", ""), "done");
                EXPECT_EQ(p.at("campaigns").at("done").asU64(),
                          specs.size());
                std::remove(progress.c_str());
            }
        }
    }
}

TEST(TelemetryInvariance, JournalBytesIdenticalWithTelemetryOnOrOff)
{
    // The journal's bytes are a pure function of the appended
    // outcomes; arming the tracer and hammering the registry around
    // the appends must not move a byte.
    auto writeJournal = [](const std::string &path) {
        io::OutcomeJournal j(path, "spec-key");
        j.open();
        faultsim::InjectDetail plain;
        faultsim::InjectDetail bad;
        bad.quarantined = true;
        bad.reason = "guarded failure";
        j.append(7, faultsim::Outcome::Masked, plain);
        j.append(11, faultsim::Outcome::SDC, plain);
        j.append(13, faultsim::Outcome::Crash, bad);
        j.close();
    };

    const std::string off = testing::TempDir() + "obs_journal_off.jnl";
    const std::string on = testing::TempDir() + "obs_journal_on.jnl";
    writeJournal(off);

    TraceWriter::global().start("");
    Registry::global().counter("test.journal_invariance").add();
    writeJournal(on);
    EXPECT_TRUE(TraceWriter::global().finish());

    EXPECT_EQ(fileBytes(on), fileBytes(off));
    std::remove(off.c_str());
    std::remove(on.c_str());
}

} // namespace
} // namespace merlin::obs
