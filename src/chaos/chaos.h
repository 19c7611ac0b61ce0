#ifndef RTP_CHAOS_CHAOS_H_
#define RTP_CHAOS_CHAOS_H_

// rtp::chaos — seeded, deterministic fault injection for the serving
// stack (docs/ROBUSTNESS.md "Fault model").
//
// A ChaosConfig names per-10000 injection rates for each fault kind plus
// the fault shape parameters (stall/delay durations). A FaultPlan turns a
// (config, stream) pair into a deterministic sequence of FaultDecisions:
// exactly one Draw() per operation, regardless of how many retry attempts
// the operation ends up needing, so the injection sequence — and hence
// the per-op injection counts the chaos CI leg diffs — depends only on
// (config.seed, stream, op sequence). The RNG is the same splitmix64
// discipline as rtp::workload thread seeding (common/rng.h).
//
// serve::Client is the one injection path: it applies a call's decided
// fault to that call's first attempt, the send-side kinds through the
// socket shim below (ShimSendLine), and counts it per kind.

#include <array>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/status.h"

namespace rtp::chaos {

// Injectable fault kinds. Benign kinds (torn write, write stall, response
// delay) perturb timing/framing but let the operation succeed; failing
// kinds (connect refusal, read stall, corruption, premature close) force
// the client through its retry/reconnect machinery.
enum class FaultKind : uint8_t {
  kNone = 0,
  kConnectRefused,   // the attempt fails as if connect() was refused
  kReadStall,        // the response never arrives within the deadline
  kWriteStall,       // the request bytes pause mid-line
  kTornWrite,        // the request line is split across several writes
  kCorruptByte,      // one request byte is overwritten on the wire
  kPrematureClose,   // the connection closes right after the request
  kResponseDelay,    // the response is delivered late
};

inline constexpr int kNumFaultKinds = 8;  // including kNone

// Stable name for metrics / stats keys ("none", "connect_refused", ...).
const char* FaultKindName(FaultKind kind);

// Injection rates in basis points (per 10000 operations) plus fault shape
// parameters. Basis points rather than percent so a plan can express
// sub-percent fault densities; the rates must sum to <= 10000.
struct ChaosConfig {
  uint64_t seed = 0;
  uint32_t connect_refused = 0;
  uint32_t read_stall = 0;
  uint32_t write_stall = 0;
  uint32_t torn_write = 0;
  uint32_t corrupt_byte = 0;
  uint32_t premature_close = 0;
  uint32_t response_delay = 0;
  // Pause length for read/write stalls, extra latency for delays.
  uint32_t stall_ms = 20;
  uint32_t delay_ms = 5;

  uint32_t TotalRate() const;
  bool enabled() const { return TotalRate() > 0; }
  // INVALID_ARGUMENT when the rates sum past 10000.
  Status Validate() const;
};

// One decided fault, ready for the transport that applies it.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  uint32_t stall_ms = 0;
  uint32_t delay_ms = 0;
  // Kind-specific shape: piece count basis for torn writes, byte offset
  // basis for corruption. Drawn alongside the kind so decisions stay
  // reproducible.
  uint64_t detail = 0;

  bool none() const { return kind == FaultKind::kNone; }
};

// A deterministic stream of fault decisions. Draw() consumes a fixed
// number of RNG words per call whether or not a fault fires, so two plans
// built from the same (config, stream) always agree draw-for-draw.
class FaultPlan {
 public:
  // Empty plan: Draw() always returns kNone (and consumes nothing).
  FaultPlan() : rng_(0) {}
  FaultPlan(const ChaosConfig& config, uint64_t stream);

  FaultDecision Draw();

  const ChaosConfig& config() const { return config_; }
  // Lifetime injection counts, indexed by FaultKind.
  const std::array<uint64_t, kNumFaultKinds>& counts() const {
    return counts_;
  }
  // Total non-kNone decisions drawn so far.
  uint64_t injected() const;

 private:
  ChaosConfig config_;
  Rng rng_;
  std::array<uint64_t, kNumFaultKinds> counts_{};
};

// Socket shim: sends `line` plus a trailing newline on `fd`, applying the
// send-side faults (kTornWrite / kWriteStall / kCorruptByte; every other
// kind sends cleanly). Loops on EINTR, uses MSG_NOSIGNAL. Returns
// UNAVAILABLE when the socket fails mid-send. This is the ONE place the
// send-side fault semantics live.
Status ShimSendLine(int fd, const std::string& line,
                    const FaultDecision& fault);

// Sleeps for `ms` milliseconds (the shim's stalls, the client's delays
// and backoff).
void SleepMs(uint32_t ms);

}  // namespace rtp::chaos

#endif  // RTP_CHAOS_CHAOS_H_
