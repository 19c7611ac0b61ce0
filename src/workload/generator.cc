#include "workload/generator.h"

#include <utility>

#include "common/alphabet.h"
#include "fuzz/generators.h"
#include "workload/exam_generator.h"
#include "xml/xml_io.h"

namespace rtp::workload {
namespace {

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

}  // namespace

StatusOr<std::unique_ptr<Generator>> CreateGenerator(
    const GeneratorSpec& spec) {
  using Flavor = FuzzTextGenerator::Flavor;
  std::unique_ptr<Generator> generator;
  if (spec.kind == "fuzz_pattern") {
    generator.reset(new FuzzTextGenerator(Flavor::kPattern, spec.text_params));
  } else if (spec.kind == "fuzz_fd") {
    generator.reset(new FuzzTextGenerator(Flavor::kFd, spec.text_params));
  } else if (spec.kind == "fuzz_xml") {
    generator.reset(new FuzzTextGenerator(Flavor::kXml, spec.text_params));
  } else if (spec.kind == "exam_doc") {
    generator.reset(new ExamDocGenerator(spec.exam_candidates));
  } else if (spec.kind == "file") {
    if (spec.payloads.empty()) {
      return InvalidArgumentError("generator '" + spec.name +
                                  "': kind 'file' needs a non-empty 'files'");
    }
    generator.reset(new FileGenerator(spec.payloads));
  } else {
    return InvalidArgumentError("generator '" + spec.name +
                                "': unknown kind '" + spec.kind + "'");
  }
  return generator;
}

}  // namespace rtp::workload
