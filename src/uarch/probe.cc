#include "uarch/probe.hh"

#include <utility>

namespace merlin::uarch
{

const char *
structureName(Structure s)
{
    switch (s) {
      case Structure::RegisterFile: return "RF";
      case Structure::StoreQueue:   return "SQ";
      case Structure::L1DCache:     return "L1D";
      default:                      return "<bad>";
    }
}

unsigned
structureEntries(Structure s, const CoreConfig &cfg)
{
    switch (s) {
      case Structure::RegisterFile: return cfg.numPhysIntRegs;
      case Structure::StoreQueue:   return cfg.sqEntries;
      case Structure::L1DCache:     return cfg.l1d.totalWords();
    }
    panic("bad structure");
}

EffectStreams::EffectStreams(unsigned rf_entries, unsigned sq_entries,
                             unsigned l1d_words)
    : counts{rf_entries, sq_entries, l1d_words}
{
    base[0] = 0;
    base[1] = counts[0];
    base[2] = base[1] + counts[1];
    streams.resize(base[2] + counts[2]);
}

Probe::Probe(unsigned rf_entries, unsigned sq_entries, unsigned l1d_words,
             bool ace)
    : counts_{rf_entries, sq_entries, l1d_words}, ace_(ace)
{
    if (ace_) {
        events_[idx(Structure::RegisterFile)].reserve(1 << 16);
        events_[idx(Structure::StoreQueue)].reserve(1 << 12);
        events_[idx(Structure::L1DCache)].reserve(1 << 14);
    }
}

EffectStreams
Probe::takeEffects()
{
    MERLIN_ASSERT(recordingEffects_, "no effect view was recorded");
    recordingEffects_ = false;
    return std::exchange(effects_, EffectStreams{});
}

} // namespace merlin::uarch
