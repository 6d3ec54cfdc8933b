/**
 * @file
 * merlin-bench-v1 documents: one per run, merged into a ledger with
 * medians and quartiles, and compared against another ledger.
 *
 *   {"format": "merlin-bench-v1",
 *    "host": {"nproc", "compiler", "build_type", "git_rev"},
 *    "seconds": S, "seeds": [...],
 *    "workloads": {NAME: {"runs", "traced_runs", "correct", "attempted",
 *                         "failed", "metrics": {METRIC: {"unit",
 *                         "values", "median", "q1", "q3"}}}}}
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "base/logging.hh"
#include "ledger.hh"

namespace ledger
{

namespace
{

/** Workload-specific end-to-end metrics BENCHMARK.json cannot list
 *  (it requires every metric on every workload), with their bounds. */
struct Extra
{
    const char *name;
    const char *better;
    double bound; ///< 0: the value is exact and must not change
};

const Extra kExtras[] = {
    {"injections_per_s", "higher", 0.25},
    {"warm_p50_ms", "lower", 0.25},
    {"warm_p99_ms", "lower", 0.50},
    {"avf_err_pp", "lower", 0.0},
};

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("GCC ") + __VERSION__;
#else
    return "unknown";
#endif
}

Json
hostJson(const std::string &git_rev)
{
    Json h = Json::object();
    h.set("nproc", std::thread::hardware_concurrency());
    h.set("compiler", compilerName());
    h.set("build_type", LEDGER_BUILD_TYPE);
    h.set("git_rev", git_rev.empty() ? "unknown" : git_rev);
    return h;
}

std::vector<double>
valuesOf(const Json &metric)
{
    std::vector<double> v;
    for (const Json &x : metric.at("values").items())
        v.push_back(x.asDouble());
    return v;
}

/** Refresh median / q1 / q3 from the values. */
void
summarize(Json &metric)
{
    const std::vector<double> v = valuesOf(metric);
    double q1 = 0, q3 = 0;
    quartiles(v, q1, q3);
    metric.set("median", median(v));
    metric.set("q1", q1);
    metric.set("q3", q3);
}

double
failedFrac(const Json &wl)
{
    return static_cast<double>(wl.u64Or("failed", 0)) /
           static_cast<double>(std::max<std::uint64_t>(
               wl.u64Or("attempted", 0), 1));
}

/** The verdict on one (workload, metric) pair. */
std::string
verdict(const std::vector<double> &old_v, const std::vector<double> &new_v,
        bool lower_better, double bound)
{
    const double mo = median(old_v), mn = median(new_v);
    // Positive = worse, as a share of the old median.
    const double sign = lower_better ? 1.0 : -1.0;
    const double change =
        mo != 0 ? sign * (mn - mo) / std::fabs(mo) : sign * (mn - mo);
    if (bound == 0.0)
        return change > 0 ? "worse" : change < 0 ? "better" : "unchanged";

    double oq1, oq3, nq1, nq3;
    quartiles(old_v, oq1, oq3);
    quartiles(new_v, nq1, nq3);
    const double old_spread = mo != 0 ? (oq3 - oq1) / std::fabs(mo) : 0;
    const double new_spread = mn != 0 ? (nq3 - nq1) / std::fabs(mn) : 0;
    const auto [omin, omax] = std::minmax_element(old_v.begin(), old_v.end());
    const auto [nmin, nmax] = std::minmax_element(new_v.begin(), new_v.end());
    const bool all_better = lower_better ? *nmax < *omin : *nmin > *omax;
    if (std::max(old_spread, new_spread) > bound)
        return all_better ? "better" : "unresolved";
    if (change > bound)
        return "worse";
    // Symmetric with worse, and the quartile boxes must be apart: the
    // bound is what host noise alone can move a median by.
    const bool apart = lower_better ? nq3 < oq1 : nq1 > oq3;
    if (-change > bound && apart)
        return "better";
    return "unchanged";
}

} // namespace

Json
benchDoc(const std::string &workload, const RunOptions &opts,
         const RunReport &rep)
{
    Json metrics = Json::object();
    for (const Metric &m : rep.metrics.list) {
        Json entry = Json::object();
        entry.set("unit", m.unit);
        Json values = Json::array();
        values.push(m.value);
        entry.set("values", values);
        summarize(entry);
        metrics.set(m.name, entry);
    }
    Json wl = Json::object();
    wl.set("runs", opts.trace ? 0 : 1);
    wl.set("traced_runs", opts.trace ? 1 : 0);
    wl.set("correct", rep.correct && rep.tally.failed == 0);
    wl.set("attempted", rep.tally.attempted);
    wl.set("failed", rep.tally.failed);
    wl.set("metrics", metrics);
    Json workloads = Json::object();
    workloads.set(workload, wl);
    Json seeds = Json::array();
    seeds.push(opts.seed);
    Json doc = Json::object();
    doc.set("format", "merlin-bench-v1");
    doc.set("host", hostJson(""));
    doc.set("seconds", opts.seconds);
    doc.set("seeds", seeds);
    doc.set("workloads", workloads);
    return doc;
}

Json
mergeDocs(const std::vector<Json> &docs, const std::string &git_rev)
{
    if (docs.empty())
        merlin::fatal("merge: no input documents");
    std::set<std::uint64_t> seeds;
    Json workloads = Json::object();
    for (const Json &doc : docs) {
        if (doc.strOr("format", "") != "merlin-bench-v1")
            merlin::fatal("merge: not a merlin-bench-v1 document");
        for (const Json &s : doc.at("seeds").items())
            seeds.insert(s.asU64());
        for (const auto &[name, wl] : doc.at("workloads").members()) {
            const Json *have = workloads.find(name);
            if (!have) {
                workloads.set(name, wl);
                continue;
            }
            Json merged = *have;
            for (const char *count : {"runs", "traced_runs", "attempted",
                                      "failed"})
                merged.set(count,
                           merged.u64Or(count, 0) + wl.u64Or(count, 0));
            merged.set("correct", merged.boolOr("correct", false) &&
                                      wl.boolOr("correct", false));
            Json metrics = merged.at("metrics");
            for (const auto &[mname, m] : wl.at("metrics").members()) {
                const Json *prev = metrics.find(mname);
                if (!prev) {
                    metrics.set(mname, m);
                    continue;
                }
                Json entry = *prev;
                Json values = entry.at("values");
                for (const Json &v : m.at("values").items())
                    values.push(v);
                entry.set("values", values);
                metrics.set(mname, entry);
            }
            merged.set("metrics", metrics);
            workloads.set(name, merged);
        }
    }
    // Recompute every summary over the pooled values.
    Json out_workloads = Json::object();
    for (const auto &[name, wl] : workloads.members()) {
        Json w = wl;
        Json metrics = Json::object();
        for (const auto &[mname, m] : wl.at("metrics").members()) {
            Json entry = m;
            summarize(entry);
            metrics.set(mname, entry);
        }
        w.set("metrics", metrics);
        out_workloads.set(name, w);
    }
    Json seed_list = Json::array();
    for (std::uint64_t s : seeds)
        seed_list.push(s);
    Json doc = Json::object();
    doc.set("format", "merlin-bench-v1");
    Json host = docs[0].at("host");
    if (!git_rev.empty())
        host.set("git_rev", git_rev);
    doc.set("host", host);
    doc.set("seconds", docs[0].at("seconds"));
    doc.set("seeds", seed_list);
    doc.set("workloads", out_workloads);
    return doc;
}

int
compareDocs(const Json &old_doc, const Json &new_doc, const Json &benchmark)
{
    struct Rule
    {
        std::string name;
        bool lowerBetter;
        double bound;
    };
    std::vector<Rule> rules;
    for (const Json &m : benchmark.at("end_to_end").items())
        rules.push_back(Rule{m.at("name").asString(),
                             m.at("better").asString() == "lower",
                             m.at("bound").asDouble()});
    for (const Extra &e : kExtras)
        rules.push_back(Rule{e.name, std::string(e.better) == "lower",
                             e.bound});

    int worse = 0;
    std::printf("%-16s %-17s %14s %14s %8s  %s\n", "workload", "metric",
                "old median", "new median", "change", "verdict");
    for (const auto &[name, nw] : new_doc.at("workloads").members()) {
        const Json *ow = old_doc.at("workloads").find(name);
        if (!ow) {
            std::printf("%-16s only in the new ledger\n", name.c_str());
            continue;
        }
        for (const Rule &r : rules) {
            const Json *om = ow->at("metrics").find(r.name);
            const Json *nm = nw.at("metrics").find(r.name);
            if (!om || !nm)
                continue;
            const std::vector<double> ov = valuesOf(*om), nv = valuesOf(*nm);
            const std::string v = verdict(ov, nv, r.lowerBetter, r.bound);
            worse += v == "worse";
            const double mo = median(ov), mn = median(nv);
            std::printf("%-16s %-17s %14.6g %14.6g %+7.1f%%  %s\n",
                        name.c_str(), r.name.c_str(), mo, mn,
                        mo != 0 ? (mn - mo) / std::fabs(mo) * 100 : 0.0,
                        v.c_str());
        }
        const double of = failedFrac(*ow), nf = failedFrac(nw);
        worse += nf > of;
        std::printf("%-16s %-17s %14.6g %14.6g %8s  %s\n", name.c_str(),
                    "failed_frac", of, nf, "",
                    nf > of   ? "worse"
                    : nf < of ? "better"
                              : "unchanged");
    }
    return worse ? 1 : 0;
}

} // namespace ledger
