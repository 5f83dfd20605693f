#ifndef ASYMNVM_SIM_FAULT_H_
#define ASYMNVM_SIM_FAULT_H_

/**
 * @file
 * Transient-fault injection for the verbs layer.
 *
 * FailureInjector (failure.h) models *fail-stop*: one torn write and the
 * device is down until recovery. Real disaggregated-NVM deployments are
 * dominated instead by transient conditions — lost or delayed verb
 * completions, queue pairs dropping into the error state, and "gray"
 * nodes that keep serving but slowly. FaultModel injects exactly those,
 * per target node, deterministically under a seed, so the retry/backoff
 * policy in src/rdma and the failover protocol in src/frontend can be
 * soaked without giving up reproducibility.
 *
 * The model is consulted once per verb and returns a FaultAction:
 *
 *  - drop_before: the verb never executes; the issuing session times out.
 *  - drop_after:  the verb executes but its completion is lost — only
 *    legal for (idempotent) writes, where the retry lands the same bytes
 *    again. This is also how *duplicated* work enters the system: the
 *    retried write, or the RPC resend it forces, re-delivers a payload
 *    the back-end already has, which the seq-dedup layers must absorb.
 *  - qp_error:    the queue pair transitions to the error state; every
 *    later verb on that endpoint fails until the endpoint resets it.
 *  - delay_ns:    the completion is late by delay_ns of virtual time.
 *  - slow_ns:     gray failure — while armed, every verb to this node
 *    pays extra service time (the node is alive but degraded).
 *
 * Decisions consume the model's private PRNG in call order, so a
 * single-threaded drive of a seeded schedule is fully deterministic.
 */

#include <atomic>
#include <cstdint>

#include "common/rand.h"

namespace asymnvm {

/** Verb classes the fault model distinguishes. */
enum class FaultVerb : uint8_t
{
    Read,
    Write,  //!< synchronous or posted write (idempotent payload)
    Atomic, //!< CAS / fetch-add / atomic 8-byte access
};

/** Per-verb injection probabilities and magnitudes. All off by default. */
struct FaultConfig
{
    double drop_rate = 0.0;     //!< P(completion lost) per verb
    /** Among drops of writes, P(the payload landed before the loss). */
    double drop_after_frac = 0.5;
    double delay_rate = 0.0;    //!< P(completion delayed) per verb
    uint64_t delay_ns = 4000;   //!< magnitude of an injected delay
    double qp_error_rate = 0.0; //!< P(QP error transition) per verb
    /** Gray failure: extra per-verb service time while slow_until_ns. */
    uint64_t slow_extra_ns = 0;

    bool enabled() const
    {
        return drop_rate > 0 || delay_rate > 0 || qp_error_rate > 0 ||
               slow_extra_ns > 0;
    }
};

/** What the transport must do about one verb. */
struct FaultAction
{
    bool drop = false;       //!< completion lost; caller times out
    bool drop_after = false; //!< payload executed before the loss
    bool qp_error = false;   //!< QP drops to the error state
    uint64_t delay_ns = 0;   //!< late completion
    uint64_t slow_ns = 0;    //!< gray-failure service-time penalty
};

/** Seeded transient-fault source attached to one back-end target. */
class FaultModel
{
  public:
    FaultModel() = default;

    /** Arm (or re-arm) the model; resets the PRNG to @p seed. */
    void configure(const FaultConfig &cfg, uint64_t seed)
    {
        cfg_ = cfg;
        rng_ = Rng(seed);
        armed_ = cfg.enabled();
    }

    /** Disarm all transient injection (gray window included). */
    void disarm()
    {
        armed_ = false;
        slow_until_ns_ = 0;
    }

    /**
     * Gray failure: until virtual time @p until_ns every verb to this
     * node pays @p extra_ns of additional service time.
     */
    void slowDownUntil(uint64_t until_ns, uint64_t extra_ns)
    {
        slow_until_ns_ = until_ns;
        cfg_.slow_extra_ns = extra_ns;
        armed_ = true;
    }

    bool armed() const { return armed_; }
    const FaultConfig &config() const { return cfg_; }

    /** Decide the fate of one verb issued at virtual time @p now_ns. */
    FaultAction onVerb(FaultVerb kind, uint64_t now_ns)
    {
        FaultAction a;
        if (!armed_)
            return a;
        if (slow_until_ns_ > now_ns && cfg_.slow_extra_ns > 0)
            a.slow_ns = cfg_.slow_extra_ns;
        if (cfg_.qp_error_rate > 0 && rng_.nextBool(cfg_.qp_error_rate)) {
            a.qp_error = true;
            return a;
        }
        if (cfg_.drop_rate > 0 && rng_.nextBool(cfg_.drop_rate)) {
            a.drop = true;
            // Only write payloads may land before the completion is
            // lost: a dropped read/atomic simply never happened.
            a.drop_after = kind == FaultVerb::Write &&
                           rng_.nextBool(cfg_.drop_after_frac);
            return a;
        }
        if (cfg_.delay_rate > 0 && rng_.nextBool(cfg_.delay_rate))
            a.delay_ns = cfg_.delay_ns;
        return a;
    }

  private:
    FaultConfig cfg_;
    Rng rng_;
    bool armed_ = false;
    uint64_t slow_until_ns_ = 0;
};

} // namespace asymnvm

#endif // ASYMNVM_SIM_FAULT_H_
