#include "workload/generator.h"

#include <map>
#include <mutex>
#include <utility>

#include "common/alphabet.h"
#include "fuzz/generators.h"
#include "workload/exam_generator.h"
#include "xml/xml_io.h"

namespace rtp::workload {
namespace {

// Kind-name → factory. A mutex-guarded map (not a lock-free structure):
// registration and instantiation happen at spec-parse and thread-start
// time, never on the per-op hot path.
struct RegistryState {
  std::mutex mu;
  std::map<std::string, GeneratorFactory> factories;
};

RegistryState& Registry() {
  static RegistryState* state = new RegistryState();
  return *state;
}

// --- built-in kinds --------------------------------------------------

class FuzzTextGenerator : public Generator {
 public:
  enum class Flavor { kPattern, kFd, kXml };
  FuzzTextGenerator(Flavor flavor, fuzz::TextGenParams params)
      : flavor_(flavor), params_(params) {}

  std::string Next(Rng* rng) override {
    switch (flavor_) {
      case Flavor::kPattern:
        return fuzz::GeneratePatternDslText(rng, params_);
      case Flavor::kFd:
        return fuzz::GeneratePatternDslText(rng, params_,
                                            /*with_context=*/true);
      case Flavor::kXml:
        return fuzz::GenerateXmlText(rng, params_);
    }
    return {};
  }

 private:
  Flavor flavor_;
  fuzz::TextGenParams params_;
};

class ExamDocGenerator : public Generator {
 public:
  explicit ExamDocGenerator(uint32_t candidates) : candidates_(candidates) {}

  std::string Next(Rng* rng) override {
    Alphabet alphabet;
    ExamWorkloadParams params;
    params.num_candidates = candidates_;
    params.seed = rng->Next();
    xml::Document doc = GenerateExamDocument(&alphabet, params);
    return xml::WriteXml(doc, /*indent=*/false);
  }

 private:
  uint32_t candidates_;
};

// Recorded payloads, replayed round-robin. The cursor is instance state,
// so a fresh instance per runner thread restarts from payload 0.
class FileGenerator : public Generator {
 public:
  explicit FileGenerator(std::vector<std::string> payloads)
      : payloads_(std::move(payloads)) {}

  std::string Next(Rng* /*rng*/) override {
    std::string payload = payloads_[cursor_ % payloads_.size()];
    ++cursor_;
    return payload;
  }

 private:
  std::vector<std::string> payloads_;
  size_t cursor_ = 0;
};

void RegisterBuiltins(RegistryState* state) {
  auto fuzz_factory = [](FuzzTextGenerator::Flavor flavor) {
    return [flavor](const GeneratorSpec& spec)
               -> StatusOr<std::unique_ptr<Generator>> {
      return std::unique_ptr<Generator>(
          new FuzzTextGenerator(flavor, spec.text_params));
    };
  };
  state->factories["fuzz_pattern"] =
      fuzz_factory(FuzzTextGenerator::Flavor::kPattern);
  state->factories["fuzz_fd"] = fuzz_factory(FuzzTextGenerator::Flavor::kFd);
  state->factories["fuzz_xml"] = fuzz_factory(FuzzTextGenerator::Flavor::kXml);
  state->factories["exam_doc"] =
      [](const GeneratorSpec& spec) -> StatusOr<std::unique_ptr<Generator>> {
    return std::unique_ptr<Generator>(
        new ExamDocGenerator(spec.exam_candidates));
  };
  state->factories["file"] =
      [](const GeneratorSpec& spec) -> StatusOr<std::unique_ptr<Generator>> {
    if (spec.payloads.empty()) {
      return InvalidArgumentError("generator '" + spec.name +
                                  "': kind 'file' needs a non-empty 'files'");
    }
    return std::unique_ptr<Generator>(new FileGenerator(spec.payloads));
  };
}

RegistryState& InitializedRegistry() {
  RegistryState& state = Registry();
  static std::once_flag once;
  std::call_once(once, [&state] {
    std::lock_guard<std::mutex> lock(state.mu);
    RegisterBuiltins(&state);
  });
  return state;
}

}  // namespace

void RegisterGeneratorKind(const std::string& kind, GeneratorFactory factory) {
  RegistryState& state = InitializedRegistry();
  std::lock_guard<std::mutex> lock(state.mu);
  state.factories[kind] = std::move(factory);
}

bool GeneratorKindRegistered(const std::string& kind) {
  RegistryState& state = InitializedRegistry();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.factories.count(kind) != 0;
}

StatusOr<std::unique_ptr<Generator>> CreateGenerator(
    const GeneratorSpec& spec) {
  GeneratorFactory factory;
  {
    RegistryState& state = InitializedRegistry();
    std::lock_guard<std::mutex> lock(state.mu);
    auto it = state.factories.find(spec.kind);
    if (it == state.factories.end()) {
      return InvalidArgumentError("generator '" + spec.name +
                                  "': unknown kind '" + spec.kind + "'");
    }
    factory = it->second;
  }
  return factory(spec);
}

}  // namespace rtp::workload
