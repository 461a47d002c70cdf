#include "sched/policy.hh"

#include <utility>

#include "util/logging.hh"

namespace herald::sched
{

const char *
toString(Policy policy)
{
    switch (policy) {
      case Policy::Fifo:
        return "FIFO";
      case Policy::Edf:
        return "EDF";
      case Policy::Lst:
        return "LST";
    }
    util::panic("unknown Policy");
}

const char *
toString(DropPolicy drop)
{
    switch (drop) {
      case DropPolicy::None:
        return "no-drop";
      case DropPolicy::HopelessFrames:
        return "drop-hopeless";
      case DropPolicy::DoomedFrames:
        return "drop-doomed";
    }
    util::panic("unknown DropPolicy");
}

SelectionPolicy::SelectionPolicy(std::size_t n_instances)
    : currentKey(n_instances, 0.0), member(n_instances, 0)
{
}

void
SelectionPolicy::onLayerScheduled(std::size_t idx)
{
    (void)idx; // FIFO/EDF keys never change
}

void
SelectionPolicy::release(std::size_t idx)
{
    const double key = keyOf(idx);
    ready.emplace(key, idx);
    currentKey[idx] = key;
    member[idx] = 1;
}

void
SelectionPolicy::retire(std::size_t idx)
{
    if (!member[idx])
        return; // exhausted by the fallback before its release
    ready.erase(std::make_pair(currentKey[idx], idx));
    member[idx] = 0;
}

void
SelectionPolicy::rekey(std::size_t idx)
{
    if (!member[idx])
        return;
    const double key = keyOf(idx);
    if (key == currentKey[idx])
        return;
    // Reuse the node: a re-key per scheduled layer would otherwise
    // free and allocate one.
    auto node = ready.extract(std::make_pair(currentKey[idx], idx));
    node.value().first = key;
    ready.insert(std::move(node));
    currentKey[idx] = key;
}

std::size_t
SelectionPolicy::selectReady(bool breadth, std::size_t rotate,
                             std::size_t grant,
                             double hysteresis_band) const
{
    if (ready.empty())
        return SIZE_MAX;
    auto first = ready.begin();
    // Hysteresis: the granted instance keeps the floor unless the
    // best competitor undercuts its key by more than the band. Only
    // an active band changes anything — with band <= 0 the branch is
    // never taken and selection is the exact historical rule.
    if (hysteresis_band > 0.0 && grant != SIZE_MAX && member[grant] &&
        first->first >= currentKey[grant] - hysteresis_band) {
        return grant;
    }
    if (breadth) {
        auto it =
            ready.lower_bound(std::make_pair(first->first, rotate));
        if (it != ready.end() && it->first == first->first)
            return it->second;
    }
    return first->second;
}

std::size_t
SelectionPolicy::selectFromRun(const std::vector<std::size_t> &run,
                               std::size_t start_pos) const
{
    std::size_t best = SIZE_MAX;
    double best_key = 0.0;
    for (std::size_t k = 0; k < run.size(); ++k) {
        std::size_t cand = run[(start_pos + k) % run.size()];
        double key = keyOf(cand);
        if (best == SIZE_MAX || key < best_key) {
            best = cand;
            best_key = key;
        }
    }
    return best;
}

std::unique_ptr<SelectionPolicy>
makeSelectionPolicy(Policy policy, const workload::Workload &wl,
                    const LayerCostTable &table,
                    const std::vector<std::size_t> &next_layer)
{
    switch (policy) {
      case Policy::Fifo:
        return std::make_unique<FifoPolicy>(wl);
      case Policy::Edf:
        return std::make_unique<EdfPolicy>(wl);
      case Policy::Lst:
        return std::make_unique<LstPolicy>(wl, table, next_layer);
    }
    util::panic("unknown Policy");
}

} // namespace herald::sched
