#include "frontend/prefetch.h"

#include <algorithm>
#include <iterator>

namespace asymnvm {

void
PrefetchEngine::onAccess(DsId ds, uint64_t stream, uint64_t addr_raw,
                         uint32_t len)
{
    if (stream == 0 || addr_raw == 0)
        return;
    const StreamKey key{ds, stream};
    auto it = streams_.find(key);
    if (it == streams_.end()) {
        if (streams_.size() >= kMaxStreams)
            evictColdest(); // keep hot predictions; shed the stalest stream
        it = streams_.emplace(key, Run{}).first;
        by_credit_[0].push_back(key);
        it->second.pos = std::prev(by_credit_[0].end());
    }
    Run &run = it->second;
    touch(run, credit(run.hits));
    if (!run.building.empty() && run.building.front().addr_raw == addr_raw) {
        // The walk wrapped back to the run's head: the recorded run is a
        // complete traversal — commit it as the prediction and start
        // recording the next pass. A walk that stopped early (a lookup
        // that found its key at the head) is a strict prefix of the
        // committed run and tells nothing new: the deeper run stays.
        const bool prefix =
            run.building.size() < run.committed.size() &&
            std::equal(run.building.begin(), run.building.end(),
                       run.committed.begin(),
                       [](const PrefetchCandidate &a,
                          const PrefetchCandidate &b) {
                           return a.addr_raw == b.addr_raw && a.len == b.len;
                       });
        if (!prefix)
            run.committed = std::move(run.building);
        run.building.clear();
        run.building.push_back(PrefetchCandidate{addr_raw, len});
        return;
    }
    if (run.building.size() < kMaxRunLen)
        run.building.push_back(PrefetchCandidate{addr_raw, len});
}

void
PrefetchEngine::collect(DsId ds, uint64_t stream, uint64_t demanded_raw,
                        std::vector<PrefetchCandidate> *out)
{
    if (stream == 0)
        return;
    auto it = streams_.find({ds, stream});
    if (it == streams_.end())
        return;
    Run &r = it->second;
    const std::vector<PrefetchCandidate> &run = r.committed;
    for (size_t i = 0; i < run.size(); ++i) {
        if (run[i].addr_raw != demanded_raw)
            continue;
        // The prediction fired: credit the stream so eviction favors
        // cold never-hit streams over this one.
        const size_t old_credit = credit(r.hits);
        ++r.hits;
        touch(r, old_credit);
        out->insert(out->end(), run.begin() + i + 1, run.end());
        return;
    }
}

void
PrefetchEngine::touch(Run &run, size_t old_credit)
{
    run.last_hit = ++tick_;
    CreditList &to = by_credit_[credit(run.hits)];
    to.splice(to.end(), by_credit_[old_credit], run.pos);
}

void
PrefetchEngine::evictColdest()
{
    // Hit-rate-weighted LRU: recency plus a per-hit credit, so a stream
    // whose predictions were actually served survives newer streams that
    // never produced a hit (the LRU-of-streams ROADMAP note). The
    // lowest score is the oldest stream of some credit level.
    std::array<CreditList *, kMaxHitCredit + 1> tied{};
    size_t ntied = 0;
    uint64_t best = 0;
    for (size_t c = 0; c < by_credit_.size(); ++c) {
        if (by_credit_[c].empty())
            continue;
        const uint64_t score =
            streams_.find(by_credit_[c].front())->second.last_hit +
            c * kHitBonusTicks;
        if (ntied == 0 || score < best) {
            ntied = 0;
            best = score;
        }
        if (score == best)
            tied[ntied++] = &by_credit_[c];
    }
    if (ntied == 0)
        return;
    CreditList *coldest = tied[0];
    if (ntied > 1) {
        // Equal scores across credit levels (one eviction in 60 K on
        // the read_pipelined benchmark) go to the stream the table
        // iterates first: the one a scan of the whole table picks.
        coldest = nullptr;
        for (auto it = streams_.begin(); coldest == nullptr; ++it)
            for (size_t i = 0; i < ntied; ++i)
                if (it->first == tied[i]->front())
                    coldest = tied[i];
    }
    streams_.erase(coldest->front());
    coldest->pop_front();
}

void
PrefetchEngine::invalidateDs(DsId ds)
{
    for (auto it = streams_.begin(); it != streams_.end();) {
        if (it->first.first == ds) {
            by_credit_[credit(it->second.hits)].erase(it->second.pos);
            it = streams_.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace asymnvm
