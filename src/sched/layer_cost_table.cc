#include "sched/layer_cost_table.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace herald::sched
{

namespace
{

/** Bit pattern of a double for exact-identity hashing. */
std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

} // namespace

bool
CostColumnCache::Key::operator==(const Key &o) const
{
    return style == o.style && flexible == o.flexible &&
           numPes == o.numPes && l2Bytes == o.l2Bytes &&
           l1Bytes == o.l1Bytes && bwBits == o.bwBits &&
           dramBwBits == o.dramBwBits && clockBits == o.clockBits &&
           localBwBits == o.localBwBits &&
           rdaTaxBits == o.rdaTaxBits &&
           rdaBaseBits == o.rdaBaseBits &&
           rdaPerPeBits == o.rdaPerPeBits &&
           rdaEnergyBits == o.rdaEnergyBits;
}

std::size_t
CostColumnCache::KeyHash::operator()(const Key &key) const
{
    auto mix = [](std::size_t h, std::uint64_t v) {
        return h ^
               (static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ULL +
                (h << 6) + (h >> 2));
    };
    std::size_t h = 0;
    h = mix(h, key.style);
    h = mix(h, key.flexible);
    h = mix(h, key.numPes);
    h = mix(h, key.l2Bytes);
    h = mix(h, key.l1Bytes);
    h = mix(h, key.bwBits);
    h = mix(h, key.dramBwBits);
    h = mix(h, key.clockBits);
    h = mix(h, key.localBwBits);
    h = mix(h, key.rdaTaxBits);
    h = mix(h, key.rdaBaseBits);
    h = mix(h, key.rdaPerPeBits);
    h = mix(h, key.rdaEnergyBits);
    return h;
}

std::size_t
CostColumnCache::size() const
{
    std::size_t n = 0;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        n += shard.map.size();
    }
    return n;
}

std::shared_ptr<const CostColumnCache::Column>
CostColumnCache::find(const Key &key)
{
    Shard &shard = shards[KeyHash{}(key) % kShards];
    std::shared_ptr<const Column> column;
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it != shard.map.end())
            column = it->second;
    }
    (column ? hitCount : missCount)
        .fetch_add(1, std::memory_order_relaxed);
    return column;
}

void
CostColumnCache::insert(const Key &key,
                        std::shared_ptr<const Column> column)
{
    Shard &shard = shards[KeyHash{}(key) % kShards];
    std::lock_guard<std::mutex> lock(shard.mutex);
    // emplace keeps the incumbent on a racing double-insert; both
    // racers evaluated the identical pure-function column.
    shard.map.emplace(key, std::move(column));
}

void
CostColumnCache::bindRows(std::size_t rows)
{
    std::size_t expected = 0;
    if (!boundRows.compare_exchange_strong(expected, rows) &&
        expected != rows) {
        util::fatal("cost column cache: bound to a workload with ",
                    expected, " unique-layer rows, asked to build ",
                    rows,
                    " — one cache instance serves one workload");
    }
}

LayerCostTable::DegradedView::DegradedView(const LayerCostTable &t)
    : table(&t), minCycDeg(t.minCyc), remSuffixDeg(t.remSuffix)
{
}

void
LayerCostTable::DegradedView::rebuild(
    const std::vector<char> &dead, const std::vector<double> &scale)
{
    const std::size_t n_acc = table->nAcc;
    if (dead.size() != n_acc ||
        (!scale.empty() && scale.size() != n_acc))
        util::fatal("degraded view: mask/scale arity mismatch");
    for (std::size_t a = 0; a < n_acc; ++a) {
        if (!scale.empty() && scale[a] < 1.0)
            util::fatal("degraded view: scale factors must be >= 1");
    }

    const std::size_t rows =
        n_acc == 0 ? 0 : table->entries.size() / n_acc;
    constexpr double inf = std::numeric_limits<double>::infinity();
    for (std::size_t row = 0; row < rows; ++row) {
        double best = inf;
        for (std::size_t a = 0; a < n_acc; ++a) {
            if (dead[a])
                continue;
            double cycles =
                table->entries[row * n_acc + a].cost.cycles;
            if (!scale.empty())
                cycles *= scale[a];
            best = std::min(best, cycles);
        }
        minCycDeg[row] = best;
    }

    // Same per-model suffix fold as build(), over the degraded
    // minima (inf is absorbing: a chain through an unrunnable layer
    // has no finite remaining-work bound).
    const std::size_t n_models = table->modelOffset.size();
    for (std::size_t u = 0; u < n_models; ++u) {
        const std::size_t base = table->modelOffset[u];
        const std::size_t limit =
            u + 1 < n_models ? table->modelOffset[u + 1] : rows;
        const std::size_t n_layers = limit - base;
        const std::size_t seg = base + u;
        remSuffixDeg[seg + n_layers] = 0.0;
        for (std::size_t l = n_layers; l-- > 0;) {
            remSuffixDeg[seg + l] =
                remSuffixDeg[seg + l + 1] + minCycDeg[base + l];
        }
    }
}

LayerCostTable
LayerCostTable::build(cost::CostModel &model,
                      const workload::Workload &wl,
                      const accel::Accelerator &acc, Metric metric,
                      const accel::RdaOverheads &rda,
                      std::size_t num_threads, CostColumnCache *cache)
{
    LayerCostTable table;
    table.nAcc = acc.numSubAccs();

    const std::size_t n_models = wl.numUniqueModels();
    table.modelOffset.resize(n_models, 0);
    std::size_t rows = 0;
    for (std::size_t u = 0; u < n_models; ++u) {
        table.modelOffset[u] = rows;
        rows += wl.uniqueModel(u).numLayers();
    }
    table.entries.resize(rows * table.nAcc);
    table.metrics.resize(rows * table.nAcc);
    table.orders.resize(rows * table.nAcc);
    table.minCyc.resize(rows, 0.0);
    table.remSuffix.resize(rows + n_models, 0.0);
    table.maxFootprint.assign(table.nAcc, 0);
    if (rows == 0 || table.nAcc == 0)
        return table;

    // Hoist the per-sub-accelerator descriptors and resource views
    // out of the fill loop, and map every row back to its layer.
    std::vector<cost::SubAccResources> res(table.nAcc);
    for (std::size_t a = 0; a < table.nAcc; ++a)
        res[a] = acc.resources(a);
    std::vector<const dnn::Layer *> layer_of(rows);
    for (std::size_t u = 0; u < n_models; ++u) {
        const dnn::Model &m = wl.uniqueModel(u);
        for (std::size_t l = 0; l < m.numLayers(); ++l)
            layer_of[table.modelOffset[u] + l] = &m.layer(l);
    }

    // Resolve columns against the cross-candidate cache: copy hits
    // into the table up front, leaving only the missing columns to
    // evaluate. Without a cache every column is "missing" and the
    // fill below is the original full prefill.
    std::vector<CostColumnCache::Key> keys(table.nAcc);
    std::vector<std::size_t> missing;
    if (cache != nullptr) {
        cache->bindRows(rows);
        for (std::size_t a = 0; a < table.nAcc; ++a) {
            const accel::SubAccelerator &sub = acc.subAccs()[a];
            CostColumnCache::Key &key = keys[a];
            key.flexible = sub.flexible ? 1 : 0;
            key.style = sub.flexible
                            ? 0
                            : static_cast<std::uint64_t>(sub.style);
            key.numPes = res[a].numPes;
            key.l2Bytes = res[a].l2Bytes;
            key.l1Bytes = res[a].l1Bytes;
            key.bwBits = doubleBits(res[a].bwGBps);
            key.dramBwBits = doubleBits(res[a].dramBwGBps);
            key.clockBits = doubleBits(res[a].clockGHz);
            key.localBwBits =
                doubleBits(res[a].localBwBytesPerCycle);
            key.rdaTaxBits = doubleBits(rda.interconnectEnergyTax);
            key.rdaBaseBits = doubleBits(rda.reconfigBaseCycles);
            key.rdaPerPeBits = doubleBits(rda.reconfigCyclesPerPe);
            key.rdaEnergyBits = doubleBits(rda.reconfigEnergyPerPe);
            if (auto column = cache->find(key)) {
                for (std::size_t row = 0; row < rows; ++row)
                    table.entries[row * table.nAcc + a] =
                        (*column)[row];
            } else {
                missing.push_back(a);
            }
        }
    } else {
        for (std::size_t a = 0; a < table.nAcc; ++a)
            missing.push_back(a);
    }

    // Fill one row: the missing sub-acc costs, then the derived
    // whole-row state (metric values, metric-sorted order, optimistic
    // minimum — those read every column, cached or fresh). Rows are
    // independent pure functions of (layer, acc), so the parallel
    // fill is bit-identical to the serial one — and a cached column
    // is bit-identical to a re-evaluated one, so cached builds equal
    // cold builds exactly.
    auto fill_row = [&](std::size_t row) {
        const dnn::Layer &layer = *layer_of[row];
        const std::size_t base = row * table.nAcc;
        for (std::size_t a : missing) {
            table.entries[base + a] = accel::evaluateOnSub(
                model, acc.subAccs()[a], res[a], layer, rda);
        }
        double min_cycles = 0.0;
        for (std::size_t a = 0; a < table.nAcc; ++a) {
            table.metrics[base + a] =
                metricValue(metric, table.entries[base + a].cost);
            table.orders[base + a] = a;
            double cycles = table.entries[base + a].cost.cycles;
            if (a == 0 || cycles < min_cycles)
                min_cycles = cycles;
        }
        table.minCyc[row] = min_cycles;
        std::sort(table.orders.begin() +
                      static_cast<std::ptrdiff_t>(base),
                  table.orders.begin() +
                      static_cast<std::ptrdiff_t>(base + table.nAcc),
                  [&](std::size_t a, std::size_t b) {
                      return table.metrics[base + a] <
                             table.metrics[base + b];
                  });
    };

    std::size_t threads = num_threads == 1
                              ? 1
                              : util::resolveThreadCount(num_threads);
    // One row is the unit of work; spawning more workers than rows
    // would only pay thread create/join cost for idle hands. The
    // pool is gated on the *missing* evaluation count: an all-hit
    // build only runs the cheap derived pass.
    threads = std::min(threads, rows);
    if (threads > 1 && rows * missing.size() >= kMinParallelEvals) {
        util::ThreadPool pool(threads - 1);
        pool.parallelFor(0, rows, fill_row);
    } else {
        for (std::size_t row = 0; row < rows; ++row)
            fill_row(row);
    }

    // Publish the freshly evaluated columns for later candidates.
    if (cache != nullptr) {
        for (std::size_t a : missing) {
            auto column =
                std::make_shared<CostColumnCache::Column>(rows);
            for (std::size_t row = 0; row < rows; ++row)
                (*column)[row] = table.entries[row * table.nAcc + a];
            cache->insert(keys[a], std::move(column));
        }
    }

    table.foldRows(wl);
    return table;
}

void
LayerCostTable::foldRows(const workload::Workload &wl)
{
    // Serial, after the fill: per-model optimistic remaining-work
    // suffix sums (a right-to-left fold over each model's rows), and
    // each column's largest footprint.
    maxFootprint.assign(nAcc, 0);
    for (std::size_t u = 0; u < modelOffset.size(); ++u) {
        const std::size_t n_layers = wl.uniqueModel(u).numLayers();
        const std::size_t seg = modelOffset[u] + u;
        remSuffix[seg + n_layers] = 0.0;
        for (std::size_t l = n_layers; l-- > 0;) {
            const std::size_t row = modelOffset[u] + l;
            remSuffix[seg + l] = remSuffix[seg + l + 1] + minCyc[row];
            for (std::size_t a = 0; a < nAcc; ++a) {
                maxFootprint[a] =
                    std::max(maxFootprint[a],
                             entries[row * nAcc + a]
                                 .cost.l2FootprintBytes);
            }
        }
    }
}

void
LayerCostTable::rebuildColumns(cost::CostModel &model,
                               const workload::Workload &wl,
                               const accel::Accelerator &acc,
                               Metric metric,
                               const accel::RdaOverheads &rda,
                               const std::vector<std::size_t> &columns,
                               std::size_t num_threads)
{
    if (acc.numSubAccs() != nAcc)
        util::fatal("layer cost table: rebuildColumns arity mismatch "
                    "(table built for ", nAcc, " sub-accs, got ",
                    acc.numSubAccs(), ")");
    const std::size_t n_models = wl.numUniqueModels();
    if (n_models != modelOffset.size())
        util::fatal("layer cost table: rebuildColumns model-set "
                    "mismatch");
    const std::size_t rows = nAcc == 0 ? 0 : entries.size() / nAcc;
    for (std::size_t a : columns) {
        if (a >= nAcc)
            util::fatal("layer cost table: rebuildColumns column ", a,
                        " out of range");
    }
    if (rows == 0 || columns.empty())
        return;

    std::vector<cost::SubAccResources> res(nAcc);
    for (std::size_t a = 0; a < nAcc; ++a)
        res[a] = acc.resources(a);
    std::vector<const dnn::Layer *> layer_of(rows);
    for (std::size_t u = 0; u < n_models; ++u) {
        const dnn::Model &m = wl.uniqueModel(u);
        if (modelOffset[u] + m.numLayers() > rows)
            util::fatal("layer cost table: rebuildColumns row-count "
                        "mismatch");
        for (std::size_t l = 0; l < m.numLayers(); ++l)
            layer_of[modelOffset[u] + l] = &m.layer(l);
    }

    // Refill one row: re-evaluate only the affected columns, then
    // recompute the whole-row derived state (min + sorted order read
    // every column, affected or not).
    auto refill_row = [&](std::size_t row) {
        const dnn::Layer &layer = *layer_of[row];
        const std::size_t base = row * nAcc;
        for (std::size_t a : columns) {
            entries[base + a] = accel::evaluateOnSub(
                model, acc.subAccs()[a], res[a], layer, rda);
            metrics[base + a] =
                metricValue(metric, entries[base + a].cost);
        }
        double min_cycles = 0.0;
        for (std::size_t a = 0; a < nAcc; ++a) {
            orders[base + a] = a;
            double cycles = entries[base + a].cost.cycles;
            if (a == 0 || cycles < min_cycles)
                min_cycles = cycles;
        }
        minCyc[row] = min_cycles;
        std::sort(orders.begin() + static_cast<std::ptrdiff_t>(base),
                  orders.begin() +
                      static_cast<std::ptrdiff_t>(base + nAcc),
                  [&](std::size_t a, std::size_t b) {
                      return metrics[base + a] < metrics[base + b];
                  });
    };

    std::size_t threads = num_threads == 1
                              ? 1
                              : util::resolveThreadCount(num_threads);
    threads = std::min(threads, rows);
    if (threads > 1 && rows * columns.size() >= kMinParallelEvals) {
        util::ThreadPool pool(threads - 1);
        pool.parallelFor(0, rows, refill_row);
    } else {
        for (std::size_t row = 0; row < rows; ++row)
            refill_row(row);
    }

    foldRows(wl);
}

} // namespace herald::sched
