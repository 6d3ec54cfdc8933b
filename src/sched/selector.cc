#include "sched/selector.hh"

#include "base/logging.hh"
#include "base/parse.hh"

namespace merlin::sched
{

SpecSelector
SpecSelector::parse(const std::string &text)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos ||
        text.find('/', slash + 1) != std::string::npos)
        fatal("--select: '", text, "' is not of the form i/n");
    SpecSelector s;
    s.index = base::parseU64(text.substr(0, slash), "--select index");
    s.count = base::parseU64(text.substr(slash + 1), "--select count");
    if (s.count == 0)
        fatal("--select: worker count must be >= 1");
    if (s.index >= s.count)
        fatal("--select: worker index ", s.index, " is out of range for ",
              s.count, " worker", s.count == 1 ? "" : "s",
              " (use 0..", s.count - 1, ")");
    return s;
}

std::string
SpecSelector::describe() const
{
    return std::to_string(index) + "/" + std::to_string(count);
}

} // namespace merlin::sched
