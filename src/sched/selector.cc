#include "sched/selector.hh"

#include "base/logging.hh"
#include "base/parse.hh"

namespace merlin::sched
{

namespace
{

const char *
modeTag(SpecSelector::Mode m)
{
    switch (m) {
      case SpecSelector::Mode::RoundRobin: return "round-robin";
      case SpecSelector::Mode::Hash:       return "hash";
    }
    panic("bad selector mode");
}

} // namespace

SpecSelector
SpecSelector::parse(const std::string &text, Mode mode)
{
    const char *flag = mode == Mode::Hash ? "--select-hash" : "--select";
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos ||
        text.find('/', slash + 1) != std::string::npos)
        fatal(flag, ": '", text, "' is not of the form i/n");
    SpecSelector s;
    s.mode = mode;
    s.index = base::parseU64(text.substr(0, slash),
                             std::string(flag) + " index");
    s.count = base::parseU64(text.substr(slash + 1),
                             std::string(flag) + " count");
    if (s.count == 0)
        fatal(flag, ": worker count must be >= 1");
    if (s.index >= s.count)
        fatal(flag, ": worker index ", s.index, " is out of range for ",
              s.count, " worker", s.count == 1 ? "" : "s",
              " (use 0..", s.count - 1, ")");
    return s;
}

bool
SpecSelector::selects(std::size_t position, const std::string &spec_key) const
{
    switch (mode) {
      case Mode::RoundRobin:
        return position % count == index;
      case Mode::Hash: {
        // The spec key IS the FNV-1a 64 content hash, as hex — reuse
        // it so the partition is a pure function of the spec value.
        const auto h = base::tryParseU64(spec_key, 16);
        if (!h)
            panic("spec key '", spec_key, "' is not a 64-bit hex hash");
        return *h % count == index;
      }
    }
    panic("bad selector mode");
}

std::string
SpecSelector::describe() const
{
    return std::to_string(index) + "/" + std::to_string(count) + " " +
           modeTag(mode);
}

} // namespace merlin::sched
