#ifndef ASYMNVM_SIM_NIC_H_
#define ASYMNVM_SIM_NIC_H_

/**
 * @file
 * Shared back-end RNIC contention model.
 *
 * Section 3.2 observes that although InfiniBand bandwidth is comparable
 * to NVM, the NIC "cannot provide enough IOPS for fine-grained data
 * structure accesses". Two contention models live here, selected by
 * NicQosConfig::cross_session_merge:
 *
 * LEGACY (default, bit-identical to the original model): the back-end
 * NIC is a single server with a fixed per-verb service time; the
 * queueing delay each verb experiences follows the M/D/1 mean-wait
 * formula computed from the NIC's *cumulative* utilization — the ratio
 * of aggregate verb service time (across every session) to the maximum
 * virtual time any session has reached since the last reset. A ratio is
 * robust both to the skew between concurrently running sessions'
 * virtual clocks and to host thread scheduling, but it collapses every
 * session's arrival process into one scalar: a verb's wait does not
 * depend on *who else* is on the wire right now.
 *
 * PER-QP (cross_session_merge on): every session/queue-pair keeps its
 * own arrival track {last doorbell time, drain horizon}, and the wait a
 * burst sees is computed from the OTHER tracks' undrained backlog:
 *
 *  - Round-robin WQE drain across same-class QPs: before a burst of n
 *    WQEs completes, each other active QP is served at most n WQE slots
 *    (its backlog, capped at n) — a long burst from one session cannot
 *    starve a short one, but k concurrent bursts of n each cost every
 *    session ~(k-1)*n service times, which is exactly the IOPS ceiling
 *    the multi-front-end figures hinge on.
 *  - Cross-session doorbell aggregation: doorbells from *different* QPs
 *    of the same class that land within merge_window_ns coalesce into
 *    one NIC arrival burst. A merged joiner skips the per-doorbell
 *    arrival processing overhead (PCIe MMIO + WQE fetch scheduling),
 *    both in its own wait and in the backlog other sessions see — the
 *    win that makes many-session scaling sub-linear instead of flat.
 *  - Two-class QoS arbitration: verbs are tagged Foreground (session
 *    critical path) or Background (mirror replication shipping,
 *    recovery replay). The arbiter bounds how much background backlog
 *    may drain ahead of a foreground burst (bg_share_pct of its WQE
 *    slots) and paces background bursts to that share of line rate, so
 *    foreground tail latency holds under a replication storm while the
 *    background class still makes proportional progress.
 *
 * Virtual clocks are per-session; the per-QP model compares timestamps
 * across sessions, which is meaningful because the multi-session
 * harnesses interleave sessions at operation granularity (clocks stay
 * in rough lockstep). The legacy scalar model remains the default for
 * exactly this robustness reason — and as the ablation baseline.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/stats.h"
#include "sim/nic_qos.h"

namespace asymnvm {

/** One back-end's RNIC: a shared, IOPS-bounded verb server. */
class NicModel
{
  public:
    /** @param verb_service_ns Service time per verb (1 / max IOPS). */
    explicit NicModel(uint64_t verb_service_ns = 120)
        : service_ns_(verb_service_ns)
    {}

    /** Install the per-QP/QoS configuration (see NicQosConfig). */
    void setQos(const NicQosConfig &q) { qos_ = q; }
    const NicQosConfig &qos() const { return qos_; }
    bool qosEnabled() const { return qos_.cross_session_merge; }

    /**
     * Account one verb issued at session-local time @p now_ns from
     * queue pair @p qp with class @p cls and return the modeled
     * queueing delay (0 when the NIC is mostly idle).
     */
    uint64_t reserve(uint64_t now_ns, uint64_t qp = 0,
                     VerbClass cls = VerbClass::Foreground)
    {
        return reserveBatch(1, now_ns, qp, cls);
    }

    /**
     * Account @p n verbs that arrive as one doorbell-batched WQE chain at
     * session-local time @p now_ns. The chain occupies the NIC for n
     * service times (it still bounds aggregate IOPS) but enters the queue
     * as a single arrival, so the issuing session waits at most one
     * queueing delay — the cost structure that makes doorbell batching
     * worthwhile on real RNICs. In the per-QP model the delay depends on
     * the OTHER queue pairs' in-flight bursts (see file comment).
     */
    uint64_t reserveBatch(uint64_t n, uint64_t now_ns, uint64_t qp = 0,
                          VerbClass cls = VerbClass::Foreground)
    {
        if (n == 0)
            return 0;
        verbs_.add(n);
        const uint64_t add = n * service_ns_;
        const uint64_t total =
            busy_total_.fetch_add(add, std::memory_order_relaxed) + add;
        busy_ns_.add(add);

        uint64_t maxn = max_now_ns_.load(std::memory_order_relaxed);
        while (now_ns > maxn &&
               !max_now_ns_.compare_exchange_weak(
                   maxn, now_ns, std::memory_order_relaxed)) {
        }
        maxn = std::max(maxn, now_ns);

        if (qos_.cross_session_merge)
            return reserveContended(n, now_ns, qp, cls);

        // Legacy scalar model: cumulative utilization, M/D/1 mean wait.
        uint64_t busy_at = 0, base = 0;
        loadResetEpoch(&busy_at, &base);
        const uint64_t busy = total > busy_at ? total - busy_at : 0;
        const uint64_t span = maxn > base ? maxn - base : 0;
        if (span < 10 * service_ns_)
            return 0; // not enough signal yet
        // Cumulative utilization, capped below saturation.
        const uint64_t ppk =
            std::min<uint64_t>(950, busy * 1000 / span);
        // M/D/1 mean waiting time: W = s * rho / (2 * (1 - rho)).
        return service_ns_ * ppk / (2 * (1000 - ppk));
    }

    /**
     * Account a doorbell-batched read gather: @p n read WQEs launched by
     * one doorbell enter the queue as a single arrival, exactly like
     * reserveBatch, but are additionally counted so benchmarks can report
     * how much of the read traffic arrives pre-batched. @p ops is the
     * number of independent *operations* whose demanded reads the chain
     * multiplexes (pipelined sessions overlap several ops per arrival);
     * gathers with ops > 1 are tracked separately so the arrival stream's
     * op-interleaving is observable at the NIC.
     */
    uint64_t reserveGather(uint64_t n, uint64_t now_ns, uint64_t ops = 1,
                           uint64_t qp = 0,
                           VerbClass cls = VerbClass::Foreground)
    {
        if (n == 0)
            return 0;
        gather_batches_.add(1);
        gather_wqes_.add(n);
        if (ops > 1)
            multi_op_batches_.add(1);
        return reserveBatch(n, now_ns, qp, cls);
    }

    uint64_t verbCount() const { return verbs_.get(); }
    uint64_t gatherBatches() const { return gather_batches_.get(); }
    uint64_t gatherWqes() const { return gather_wqes_.get(); }
    /** Gather arrivals multiplexing several in-flight ops' reads. */
    uint64_t multiOpBatches() const { return multi_op_batches_.get(); }
    uint64_t busyNs() const { return busy_ns_.get(); }
    uint64_t serviceNs() const { return service_ns_; }

    // ------------------------------------------------------------------
    // Per-QP / per-class observability (populated in the per-QP model)
    // ------------------------------------------------------------------

    /** Doorbell arrivals of @p cls accounted by the per-QP model. */
    uint64_t classBursts(VerbClass cls) const
    {
        return cls_[idx(cls)].bursts.get();
    }
    /** WQEs of @p cls accounted by the per-QP model. */
    uint64_t classWqes(VerbClass cls) const
    {
        return cls_[idx(cls)].wqes.get();
    }
    /** Arrivals of @p cls that coalesced into an earlier doorbell. */
    uint64_t classMerged(VerbClass cls) const
    {
        return cls_[idx(cls)].merged.get();
    }
    /** Cross-QP queueing delay charged to @p cls bursts. */
    uint64_t classQueueWaitNs(VerbClass cls) const
    {
        return cls_[idx(cls)].queue_wait_ns.get();
    }
    /** Pacing delay the arbiter charged to rate-capped background. */
    uint64_t bgThrottleNs() const { return bg_throttle_ns_.get(); }

    /** Per-QP burst/WQE counts (deterministic order; snapshot). */
    std::vector<std::pair<uint64_t, NicQpCounters>> qpSnapshot() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<std::pair<uint64_t, NicQpCounters>> out;
        out.reserve(qps_.size());
        for (const auto &[id, t] : qps_)
            out.emplace_back(id, NicQpCounters{t.bursts, t.wqes});
        return out;
    }

    /** Cumulative utilization since the last reset, 0..1. */
    double utilization() const
    {
        uint64_t busy_at = 0, base = 0;
        loadResetEpoch(&busy_at, &base);
        const uint64_t total = busy_total_.load(std::memory_order_relaxed);
        const uint64_t maxn = max_now_ns_.load(std::memory_order_relaxed);
        const uint64_t busy = total > busy_at ? total - busy_at : 0;
        const uint64_t span = maxn > base ? maxn - base : 0;
        return span == 0 ? 0.0
                         : static_cast<double>(busy) /
                               static_cast<double>(span);
    }

    /**
     * Reset counters and rebase utilization at the current time.
     *
     * The {busy-at-reset, base-time} pair is published as ONE seqlock
     * epoch: a reader (utilization(), the legacy reserveBatch path)
     * either sees the pre-reset pair or the post-reset pair, never a
     * mix. The previous implementation zeroed the busy counter and
     * rebased the time in two independent stores, so a reserveBatch
     * racing between them could land service time on the zeroed counter
     * while the span was about to shrink to ~0 — utilization()
     * transiently over-reported by orders of magnitude. Cumulative
     * service time itself is never zeroed (busy_total_ is monotone);
     * reset only moves the subtraction point.
     */
    void resetStats()
    {
        verbs_.reset();
        gather_batches_.reset();
        gather_wqes_.reset();
        multi_op_batches_.reset();
        busy_ns_.reset();
        for (ClassCounters &c : cls_) {
            c.bursts.reset();
            c.wqes.reset();
            c.merged.reset();
            c.queue_wait_ns.reset();
        }
        bg_throttle_ns_.reset();
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (auto &[id, t] : qps_) {
                t.bursts = 0;
                t.wqes = 0;
            }
        }
        // Single epoch-coherent transition: odd seq = reset in progress.
        reset_seq_.fetch_add(1, std::memory_order_acq_rel);
        busy_at_reset_.store(busy_total_.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
        base_now_ns_.store(max_now_ns_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
        reset_seq_.fetch_add(1, std::memory_order_release);
    }

  private:
    static constexpr size_t idx(VerbClass c)
    {
        return static_cast<size_t>(c);
    }

    /** Seqlock read of the coherent {busy_at_reset, base_now} pair. */
    void loadResetEpoch(uint64_t *busy_at, uint64_t *base) const
    {
        for (;;) {
            const uint64_t s1 =
                reset_seq_.load(std::memory_order_acquire);
            if (s1 & 1)
                continue; // reset mid-flight; spin (reset is two stores)
            *busy_at = busy_at_reset_.load(std::memory_order_relaxed);
            *base = base_now_ns_.load(std::memory_order_relaxed);
            if (reset_seq_.load(std::memory_order_acquire) == s1)
                return;
        }
    }

    /** One queue pair's arrival track (per-QP model state). */
    struct QpTrack
    {
        uint64_t last_arrival_ns = 0;
        uint64_t busy_until_ns = 0; //!< when its queued WQEs fully drain
        VerbClass cls = VerbClass::Foreground; //!< class of its backlog
        uint64_t bursts = 0;
        uint64_t wqes = 0;
    };

    /**
     * Per-QP contention path: compute the wait a burst of @p n WQEs
     * from @p qp sees given every other track's undrained backlog, then
     * record this burst on @p qp's track. See the file comment for the
     * model; exact-once accounting holds under concurrent callers (one
     * mutex guards the tracks; the returned delays stay deterministic
     * for the single-host-thread benchmark harnesses).
     */
    uint64_t reserveContended(uint64_t n, uint64_t now_ns, uint64_t qp,
                              VerbClass cls)
    {
        std::lock_guard<std::mutex> lock(mu_);
        QpTrack &me = qps_[qp];

        const auto backlog_wqes = [&](const QpTrack &t) -> uint64_t {
            return t.busy_until_ns > now_ns
                       ? (t.busy_until_ns - now_ns + service_ns_ - 1) /
                             service_ns_
                       : 0;
        };

        uint64_t same = 0;  // same-class WQEs drained round-robin with us
        uint64_t other = 0; // other-class backlog, total
        for (const auto &[id, t] : qps_) {
            if (id == qp)
                continue;
            const uint64_t b = backlog_wqes(t);
            if (b == 0)
                continue;
            if (t.cls == cls)
                same += std::min<uint64_t>(b, n); // round-robin WQE drain
            else
                other += b;
        }

        // Cross-session doorbell aggregation (enabled by a non-zero
        // merge window): this doorbell coalesces into an existing NIC
        // arrival burst — skipping the per-doorbell arrival processing —
        // either when a same-class arrival from a DIFFERENT queue pair
        // landed within the merge window, or when other same-class QPs'
        // backlog is still draining (the NIC is already fetching WQEs of
        // this class, so one more chain rides the ongoing fetch). The
        // backlog form is what makes aggregation effective at high
        // session counts, where per-session virtual clocks are close but
        // not lockstep. The timestamps compare across sessions' clocks,
        // so use the absolute distance.
        bool merged = false;
        if (qos_.merge_window_ns > 0) {
            const uint64_t la = last_arrival_ns_[idx(cls)];
            const uint64_t lq = last_arrival_qp_[idx(cls)];
            const uint64_t dist = now_ns > la ? now_ns - la : la - now_ns;
            merged = same > 0 ||
                     (la != 0 && lq != qp && dist <= qos_.merge_window_ns);
        }
        // Own queue drains FIFO: a burst queues behind the QP's previous
        // undrained WQEs in full.
        uint64_t wait = (same + backlog_wqes(me)) * service_ns_;

        const uint32_t share = std::min<uint32_t>(qos_.bg_share_pct, 100);
        if (other > 0) {
            if (cls == VerbClass::Foreground && share < 100) {
                // Arbiter: at most share% of our WQE slots may go to
                // background backlog ahead of us.
                const uint64_t cap = n * share / (100 - share);
                wait += std::min(other, cap) * service_ns_;
            } else {
                // Uncapped (share == 100) the classes drain FIFO; and a
                // background burst always waits out foreground backlog
                // in full (foreground has priority).
                wait += other * service_ns_;
            }
        }
        if (cls == VerbClass::Background && share < 100) {
            // Pace the background class to share% of line rate: n WQEs
            // take n*s*100/share wall time, s per WQE of which is
            // service — the rest is arbitration stall.
            const uint64_t throttle =
                n * service_ns_ * (100 - share) /
                std::max<uint32_t>(share, 1);
            wait += throttle;
            bg_throttle_ns_.add(throttle);
        }

        const uint64_t arrival = merged ? 0 : qos_.arrival_overhead_ns;
        me.busy_until_ns =
            std::max(me.busy_until_ns, now_ns) + n * service_ns_ + arrival;
        me.last_arrival_ns = now_ns;
        me.cls = cls;
        ++me.bursts;
        me.wqes += n;
        last_arrival_ns_[idx(cls)] = now_ns;
        last_arrival_qp_[idx(cls)] = qp;

        ClassCounters &cc = cls_[idx(cls)];
        cc.bursts.add(1);
        cc.wqes.add(n);
        if (merged)
            cc.merged.add(1);
        cc.queue_wait_ns.add(wait);
        return wait + arrival;
    }

    uint64_t service_ns_;
    NicQosConfig qos_;

    // Cumulative-utilization state (shared by both models).
    std::atomic<uint64_t> max_now_ns_{0};
    std::atomic<uint64_t> base_now_ns_{0};
    std::atomic<uint64_t> busy_total_{0};    //!< monotone; never zeroed
    std::atomic<uint64_t> busy_at_reset_{0}; //!< subtraction point
    std::atomic<uint64_t> reset_seq_{0};     //!< seqlock: odd = resetting

    // Per-QP model state (mutex-guarded; empty in legacy mode).
    mutable std::mutex mu_;
    std::map<uint64_t, QpTrack> qps_; //!< ordered: deterministic iteration
    uint64_t last_arrival_ns_[2] = {0, 0}; //!< per class, for merging
    uint64_t last_arrival_qp_[2] = {0, 0};

    struct ClassCounters
    {
        Counter bursts;
        Counter wqes;
        Counter merged;
        Counter queue_wait_ns;
    };
    ClassCounters cls_[2];
    Counter bg_throttle_ns_;

    Counter verbs_;
    Counter gather_batches_;
    Counter gather_wqes_;
    Counter multi_op_batches_;
    Counter busy_ns_;
};

} // namespace asymnvm

#endif // ASYMNVM_SIM_NIC_H_
