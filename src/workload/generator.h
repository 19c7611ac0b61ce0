#ifndef RTP_WORKLOAD_GENERATOR_H_
#define RTP_WORKLOAD_GENERATOR_H_

// Payload generators for workload specs: the runner asks a Generator for
// the next pattern / FD / document text, so the same harness can replay
// recorded files, synthesize rtp::fuzz streams, or emit exam-session
// documents. A spec names one of five kinds (parameters in
// docs/WORKLOADS.md):
//   fuzz_pattern  pattern-DSL text from fuzz::GeneratePatternDslText
//   fuzz_fd       pattern-DSL-with-context text (parseable as an FD)
//   fuzz_xml      well-formed XML from fuzz::GenerateXmlText
//   exam_doc      Figure-1-shaped exam session (workload/exam_generator.h)
//   file          recorded payloads, cycled round-robin per instance
//
// Determinism: every random draw comes from the caller's Rng, and any
// instance-local state (the file cursor) starts from zero, so one
// generator instance per runner thread reproduces the same payload
// sequence for the same thread seed.

#include <memory>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "workload/spec.h"

namespace rtp::workload {

class Generator {
 public:
  virtual ~Generator() = default;

  // The next payload, drawn deterministically from `rng` (and any
  // instance-local cursor state).
  virtual std::string Next(Rng* rng) = 0;
};

// Instantiates the generator described by `spec`; unknown kinds yield
// INVALID_ARGUMENT. Each runner thread creates its own instances.
StatusOr<std::unique_ptr<Generator>> CreateGenerator(const GeneratorSpec& spec);

}  // namespace rtp::workload

#endif  // RTP_WORKLOAD_GENERATOR_H_
