#include "sched/diff.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "base/logging.hh"
#include "base/statistics.hh"
#include "sched/suite.hh"

namespace merlin::sched
{

using io::Json;

namespace
{

constexpr const char *kDiffFormatTag = "merlin-diff-v1";

/** One store entry, indexed for the join. */
struct SideEntry
{
    std::string fullKey;
    Json maskedSpec;
    Json axisVals;
    Json spec;
    core::CampaignResult res;
};

/**
 * Index a store by axis-masked spec hash.  Fatal when two entries
 * collapse onto one join key: that store contains the sweep itself,
 * and the pairing would be ambiguous.
 */
std::map<std::string, SideEntry>
indexStore(const io::ResultStore &store, const char *label,
           const std::vector<std::string> &axis)
{
    std::map<std::string, SideEntry> out;
    for (const auto &[key, entry] : store.entries()) {
        SideEntry side;
        side.fullKey = key;
        side.spec = entry.spec;
        side.maskedSpec = entry.spec;
        side.axisVals = Json::object();
        for (const std::string &knob : axis) {
            if (const Json *v = side.maskedSpec.find(knob))
                side.axisVals.set(knob, *v);
            side.maskedSpec.erase(knob);
        }
        side.res = io::resultFromJson(entry.result);
        const std::string joinKey = io::contentKey(side.maskedSpec);
        auto [it, inserted] = out.emplace(joinKey, std::move(side));
        if (!inserted)
            fatal("suite diff: store ", label, ": entries '",
                  it->second.fullKey, "' and '", key,
                  "' are identical modulo the swept axis — each side "
                  "of a diff must hold one configuration per campaign");
    }
    return out;
}

Json
classDeltaJson(
    const std::array<std::int64_t, faultsim::NUM_OUTCOMES> &d)
{
    Json arr = Json::array();
    for (std::int64_t v : d)
        arr.push(v);
    return arr;
}

Json
classFracJson(const std::array<double, faultsim::NUM_OUTCOMES> &d)
{
    Json arr = Json::array();
    for (double v : d)
        arr.push(v);
    return arr;
}

Json
unpairedJson(const std::vector<UnpairedCampaign> &v)
{
    Json arr = Json::array();
    for (const UnpairedCampaign &u : v) {
        Json j = Json::object();
        j.set("join_key", u.joinKey);
        j.set("key", u.key);
        j.set("spec", u.spec);
        arr.push(j);
    }
    return arr;
}

/** Compact "a,b,c" rendering of an axis-value object. */
std::string
axisLabel(const Json &axis_vals)
{
    if (!axis_vals.isObject() || axis_vals.size() == 0)
        return "-";
    std::string out;
    for (const auto &[name, value] : axis_vals.members()) {
        (void)name;
        if (!out.empty())
            out += ',';
        if (value.isString())
            out += value.asString();
        else
            out += value.dump();
    }
    return out;
}

} // namespace

std::optional<double>
samplingMargin(std::uint64_t initial_faults, double confidence)
{
    if (initial_faults == 0)
        return std::nullopt;
    return stats::zForConfidence(confidence) *
           std::sqrt(0.25 / static_cast<double>(initial_faults));
}

std::optional<double>
quadratureMargin(std::optional<double> a, std::optional<double> b)
{
    if (!a || !b)
        return std::nullopt;
    return std::sqrt(*a * *a + *b * *b);
}

SuiteDiff::SuiteDiff(const io::ResultStore &a, const io::ResultStore &b,
                     DiffOptions opts)
    : a_(a), b_(b), opts_(std::move(opts))
{
    for (const std::string &knob : opts_.axis) {
        if (!isSpecMember(knob))
            fatal("suite diff: '", knob,
                  "' is not a spec member (valid sweep axes are the "
                  "manifest knob names, e.g. l1d_kb)");
    }
    if (!(opts_.confidence > 0.0 && opts_.confidence < 1.0))
        fatal("suite diff: confidence must be in (0, 1)");
}

SuiteDiffResult
SuiteDiff::run() const
{
    const auto sideA = indexStore(a_, "A", opts_.axis);
    const auto sideB = indexStore(b_, "B", opts_.axis);

    SuiteDiffResult out;
    out.axis = opts_.axis;
    out.confidence = opts_.confidence;
    out.campaignsA = a_.entries().size();
    out.campaignsB = b_.entries().size();

    double ciSquares = 0.0;
    bool allMargins = true;

    // Both indexes iterate in joinKey order, so the output is sorted
    // by construction.
    for (const auto &[joinKey, ea] : sideA) {
        auto itB = sideB.find(joinKey);
        if (itB == sideB.end()) {
            out.onlyA.push_back(
                UnpairedCampaign{joinKey, ea.fullKey, ea.spec});
            continue;
        }
        const SideEntry &eb = itB->second;

        CampaignDelta d;
        d.joinKey = joinKey;
        d.maskedSpec = ea.maskedSpec;
        d.axisA = ea.axisVals;
        d.axisB = eb.axisVals;
        d.keyA = ea.fullKey;
        d.keyB = eb.fullKey;

        d.avfA = ea.res.merlinEstimate.avf();
        d.avfB = eb.res.merlinEstimate.avf();
        d.dAvf = d.avfB - d.avfA;
        d.dAvfCi = quadratureMargin(
            samplingMargin(ea.res.initialFaults, opts_.confidence),
            samplingMargin(eb.res.initialFaults, opts_.confidence));

        for (unsigned c = 0; c < faultsim::NUM_OUTCOMES; ++c) {
            const auto o = static_cast<faultsim::Outcome>(c);
            d.dClasses[c] =
                static_cast<std::int64_t>(eb.res.merlinEstimate.of(o)) -
                static_cast<std::int64_t>(ea.res.merlinEstimate.of(o));
            d.dClassFracs[c] = eb.res.merlinEstimate.fraction(o) -
                               ea.res.merlinEstimate.fraction(o);
            out.dClassTotals[c] += d.dClasses[c];
        }

        d.injectionsA = ea.res.injections;
        d.injectionsB = eb.res.injections;
        d.dInjections = static_cast<std::int64_t>(d.injectionsB) -
                        static_cast<std::int64_t>(d.injectionsA);

        out.meanDAvf += d.dAvf;
        out.meanAbsDAvf += std::abs(d.dAvf);
        if (d.dAvfCi)
            ciSquares += *d.dAvfCi * *d.dAvfCi;
        else
            allMargins = false;

        out.deltas.push_back(std::move(d));
    }
    for (const auto &[joinKey, eb] : sideB) {
        if (sideA.find(joinKey) == sideA.end())
            out.onlyB.push_back(
                UnpairedCampaign{joinKey, eb.fullKey, eb.spec});
    }

    if (!out.deltas.empty()) {
        const double n = static_cast<double>(out.deltas.size());
        out.meanDAvf /= n;
        out.meanAbsDAvf /= n;
        if (allMargins)
            out.meanDAvfCi = std::sqrt(ciSquares) / n;
    }
    return out;
}

Json
SuiteDiffResult::toJson() const
{
    Json doc = Json::object();
    doc.set("format", kDiffFormatTag);
    Json axisArr = Json::array();
    for (const std::string &knob : axis)
        axisArr.push(knob);
    doc.set("axis", axisArr);
    doc.set("confidence", confidence);
    doc.set("campaigns_a", static_cast<std::uint64_t>(campaignsA));
    doc.set("campaigns_b", static_cast<std::uint64_t>(campaignsB));
    doc.set("joined", static_cast<std::uint64_t>(deltas.size()));

    Json rows = Json::array();
    for (const CampaignDelta &d : deltas) {
        Json r = Json::object();
        r.set("join_key", d.joinKey);
        r.set("spec", d.maskedSpec);
        r.set("axis_a", d.axisA);
        r.set("axis_b", d.axisB);
        r.set("key_a", d.keyA);
        r.set("key_b", d.keyB);
        r.set("avf_a", d.avfA);
        r.set("avf_b", d.avfB);
        r.set("d_avf", d.dAvf);
        r.set("d_avf_ci", d.dAvfCi ? Json(*d.dAvfCi) : Json());
        r.set("d_classes", classDeltaJson(d.dClasses));
        r.set("d_class_fracs", classFracJson(d.dClassFracs));
        r.set("injections_a", d.injectionsA);
        r.set("injections_b", d.injectionsB);
        r.set("d_injections", d.dInjections);
        rows.push(r);
    }
    doc.set("deltas", rows);
    doc.set("only_a", unpairedJson(onlyA));
    doc.set("only_b", unpairedJson(onlyB));

    Json agg = Json::object();
    agg.set("mean_d_avf", meanDAvf);
    agg.set("mean_abs_d_avf", meanAbsDAvf);
    agg.set("mean_d_avf_ci", meanDAvfCi ? Json(*meanDAvfCi) : Json());
    agg.set("d_class_totals", classDeltaJson(dClassTotals));
    doc.set("aggregate", agg);
    return doc;
}

std::string
SuiteDiffResult::table() const
{
    std::string out;
    char line[256];
    const auto emit = [&](const char *fmt, auto... args) {
        std::snprintf(line, sizeof line, fmt, args...);
        out += line;
    };

    std::string axisNames;
    for (const std::string &knob : axis) {
        if (!axisNames.empty())
            axisNames += ',';
        axisNames += knob;
    }
    emit("axis: %s   confidence: %.3g%%\n",
         axisNames.empty() ? "(exact join)" : axisNames.c_str(),
         100.0 * confidence);
    emit("%-14s %-4s %-13s %14s %9s %9s %10s %9s\n", "workload", "tgt",
         "mode", "axis A->B", "AVF A%", "AVF B%", "dAVF pp", "+-CI pp");
    for (const CampaignDelta &d : deltas) {
        const std::string axisAB =
            axisLabel(d.axisA) + " -> " + axisLabel(d.axisB);
        std::string mode = d.maskedSpec.strOr("mode", "*");
        if (mode == "grouping_only")
            mode = "grouping-only";
        char ci[32];
        if (d.dAvfCi)
            std::snprintf(ci, sizeof ci, "%9.3f", 100.0 * *d.dAvfCi);
        else
            std::snprintf(ci, sizeof ci, "%9s", "-");
        emit("%-14s %-4s %-13s %14s %9.3f %9.3f %+10.3f %s\n",
             d.maskedSpec.strOr("workload", "*").c_str(),
             d.maskedSpec.strOr("structure", "*").c_str(), mode.c_str(),
             axisAB.c_str(), 100.0 * d.avfA, 100.0 * d.avfB,
             100.0 * d.dAvf, ci);
    }
    emit("\n%zu campaigns joined (A: %zu, B: %zu; only-A: %zu, "
         "only-B: %zu)\n",
         deltas.size(), campaignsA, campaignsB, onlyA.size(),
         onlyB.size());
    if (!deltas.empty()) {
        if (meanDAvfCi) {
            emit("aggregate: mean dAVF %+.3f pp (+- %.3f pp at %.3g%%), "
                 "mean |dAVF| %.3f pp\n",
                 100.0 * meanDAvf, 100.0 * *meanDAvfCi,
                 100.0 * confidence, 100.0 * meanAbsDAvf);
        } else {
            emit("aggregate: mean dAVF %+.3f pp (CI -: a zero-fault "
                 "side has no sampling margin), mean |dAVF| %.3f pp\n",
                 100.0 * meanDAvf, 100.0 * meanAbsDAvf);
        }
    }
    for (const UnpairedCampaign &u : onlyA)
        emit("only in A: %s (%s)\n",
             u.spec.strOr("workload", "?").c_str(), u.key.c_str());
    for (const UnpairedCampaign &u : onlyB)
        emit("only in B: %s (%s)\n",
             u.spec.strOr("workload", "?").c_str(), u.key.c_str());
    return out;
}

} // namespace merlin::sched
