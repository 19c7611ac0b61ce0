#include "workload/spec.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "serve/json.h"
#include "workload/generator.h"

namespace rtp::workload {
namespace {

using serve::JsonValue;

constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr int64_t kMaxUint32 = std::numeric_limits<uint32_t>::max();

Status OpError(const std::string& op, const std::string& message) {
  return InvalidArgumentError("workload op '" + op + "': " + message);
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return InvalidArgumentError("cannot read workload payload file '" + path +
                                "'");
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string ResolvePath(const std::string& base_dir, const std::string& path) {
  if (base_dir.empty() || (!path.empty() && path[0] == '/')) return path;
  return base_dir + "/" + path;
}

// Strict key check: a typo in a spec must fail loudly, not silently
// change the workload shape.
Status CheckKeys(const JsonValue& obj, const std::string& what,
                 std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : obj.object_items()) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      return InvalidArgumentError(what + ": unknown key '" + key + "'");
    }
  }
  return Status::OK();
}

// A nonnegative integer no larger than `max`, so the value fits the field
// it lands in; `what` names the key in the error.
StatusOr<int64_t> RequireInt(
    const JsonValue& v, const std::string& what,
    int64_t max = std::numeric_limits<int64_t>::max()) {
  if (!v.is_int() || v.int_value() < 0) {
    return InvalidArgumentError(what + " must be a nonnegative integer");
  }
  if (v.int_value() > max) {
    return InvalidArgumentError(what + " must be at most " +
                                std::to_string(max));
  }
  return v.int_value();
}

StatusOr<std::vector<std::string>> ParseStringArray(const JsonValue& v,
                                                    const std::string& what) {
  if (!v.is_array()) {
    return InvalidArgumentError(what + " must be an array of strings");
  }
  std::vector<std::string> out;
  for (const JsonValue& item : v.array_items()) {
    if (!item.is_string()) {
      return InvalidArgumentError(what + " must be an array of strings");
    }
    out.push_back(item.string_value());
  }
  return out;
}

StatusOr<GeneratorSpec> ParseGeneratorSpec(const std::string& name,
                                           const JsonValue& config,
                                           const std::string& base_dir) {
  const std::string what = "generator '" + name + "'";
  if (!config.is_object()) {
    return InvalidArgumentError(what + " must be an object");
  }
  RTP_RETURN_IF_ERROR(CheckKeys(
      config, what,
      {"kind", "num_labels", "max_regex_nodes", "wildcard_percent",
       "max_template_nodes", "max_schema_elements", "max_xml_nodes",
       "max_path_steps", "value_pool", "candidates", "files"}));
  GeneratorSpec spec;
  spec.name = name;
  spec.kind = config.FindString("kind");
  if (spec.kind.empty()) return InvalidArgumentError(what + " needs a 'kind'");
  struct Field {
    const char* key;
    uint32_t* slot;
  };
  const Field fields[] = {
      {"num_labels", &spec.text_params.num_labels},
      {"max_regex_nodes", &spec.text_params.max_regex_nodes},
      {"wildcard_percent", &spec.text_params.wildcard_percent},
      {"max_template_nodes", &spec.text_params.max_template_nodes},
      {"max_schema_elements", &spec.text_params.max_schema_elements},
      {"max_xml_nodes", &spec.text_params.max_xml_nodes},
      {"max_path_steps", &spec.text_params.max_path_steps},
      {"value_pool", &spec.text_params.value_pool},
      {"candidates", &spec.exam_candidates},
  };
  for (const Field& field : fields) {
    if (const JsonValue* v = config.Find(field.key)) {
      RTP_ASSIGN_OR_RETURN(
          int64_t parsed,
          RequireInt(*v, what + ": " + field.key, kMaxUint32));
      *field.slot = static_cast<uint32_t>(parsed);
    }
  }
  if (spec.exam_candidates == 0) {
    return InvalidArgumentError(what + ": candidates must be positive");
  }
  if (const JsonValue* v = config.Find("files")) {
    RTP_ASSIGN_OR_RETURN(std::vector<std::string> files,
                         ParseStringArray(*v, what + ": files"));
    for (const std::string& file : files) {
      RTP_ASSIGN_OR_RETURN(std::string payload,
                           ReadFile(ResolvePath(base_dir, file)));
      spec.payloads.push_back(std::move(payload));
    }
  }
  // Instantiate once at parse time so an unknown kind or a
  // misconfiguration surfaces here, not on runner thread N at traffic time.
  auto probe = CreateGenerator(spec);
  if (!probe.ok()) return probe.status();
  return spec;
}

struct OpKindEntry {
  std::string_view name;
  OpKind kind;
};
constexpr OpKindEntry kOpKinds[] = {
    {"eval", OpKind::kEval},       {"checkfd", OpKind::kCheckFd},
    {"matrix", OpKind::kMatrix},   {"load", OpKind::kLoad},
    {"stats", OpKind::kStats},
};

// Parses one op object of `setup` (in_mix false) or `mix` (in_mix true,
// where a positive integer `weight` is required).
StatusOr<WorkloadOp> ParseOp(const std::string& name, const JsonValue& obj,
                             bool in_mix, const WorkloadSpec& spec,
                             const std::string& base_dir) {
  if (!obj.is_object()) return OpError(name, "must be an object");
  WorkloadOp op;
  op.name = name;
  const std::string kind = obj.FindString("op");
  if (kind.empty()) return OpError(name, "needs an 'op'");
  const OpKindEntry* entry = std::find_if(
      std::begin(kOpKinds), std::end(kOpKinds),
      [&kind](const OpKindEntry& e) { return e.name == kind; });
  if (entry == std::end(kOpKinds)) {
    return OpError(name, "unknown op '" + kind + "'");
  }
  op.kind = entry->kind;

  const std::string what = "workload op '" + name + "'";
  switch (op.kind) {
    case OpKind::kEval:
    case OpKind::kCheckFd:
    case OpKind::kLoad: {
      RTP_RETURN_IF_ERROR(CheckKeys(
          obj, what,
          {"op", "weight", "doc", "text", "file", "generator", "deadline_ms",
           "max_states", "max_steps", "max_memory_mb"}));
      op.doc = obj.FindString("doc");
      if (op.doc.empty()) return OpError(name, "needs a 'doc'");
      int sources = 0;
      if (const JsonValue* v = obj.Find("text")) {
        if (!v->is_string()) return OpError(name, "'text' must be a string");
        op.text = v->string_value();
        ++sources;
      }
      if (const JsonValue* v = obj.Find("file")) {
        if (!v->is_string()) return OpError(name, "'file' must be a string");
        RTP_ASSIGN_OR_RETURN(
            op.text, ReadFile(ResolvePath(base_dir, v->string_value())));
        ++sources;
      }
      if (const JsonValue* v = obj.Find("generator")) {
        if (!v->is_string()) {
          return OpError(name, "'generator' must be a string");
        }
        for (size_t i = 0; i < spec.generators.size(); ++i) {
          if (spec.generators[i].name == v->string_value()) op.generator = i;
        }
        if (op.generator == kNoGenerator) {
          return OpError(name, "references unknown generator '" +
                                   v->string_value() + "'");
        }
        ++sources;
      }
      if (sources != 1) {
        return OpError(name,
                       "needs exactly one payload source out of "
                       "'text', 'file', 'generator'");
      }
      break;
    }
    case OpKind::kMatrix: {
      RTP_RETURN_IF_ERROR(CheckKeys(
          obj, what,
          {"op", "weight", "fds", "classes", "schema", "deadline_ms",
           "max_states", "max_steps", "max_memory_mb"}));
      const JsonValue* fds = obj.Find("fds");
      const JsonValue* classes = obj.Find("classes");
      if (fds == nullptr || classes == nullptr) {
        return OpError(name, "needs 'fds' and 'classes' arrays");
      }
      RTP_ASSIGN_OR_RETURN(op.fd_texts, ParseStringArray(*fds, what + " fds"));
      RTP_ASSIGN_OR_RETURN(op.class_texts,
                           ParseStringArray(*classes, what + " classes"));
      if (op.fd_texts.empty() || op.class_texts.empty()) {
        return OpError(name, "'fds' and 'classes' must be non-empty");
      }
      op.schema_text = obj.FindString("schema");
      break;
    }
    case OpKind::kStats:
      RTP_RETURN_IF_ERROR(CheckKeys(obj, what, {"op", "weight"}));
      break;
  }

  const JsonValue* weight = obj.Find("weight");
  if (!in_mix && weight != nullptr) {
    return OpError(name, "'weight' only applies to mix ops");
  }
  if (in_mix) {
    if (weight == nullptr) return OpError(name, "needs a 'weight'");
    RTP_ASSIGN_OR_RETURN(int64_t parsed,
                         RequireInt(*weight, what + ": weight", kMaxUint32));
    if (parsed == 0) return OpError(name, "weight must be positive");
    op.weight = static_cast<uint64_t>(parsed);
  }

  if (const JsonValue* v = obj.Find("deadline_ms")) {
    RTP_ASSIGN_OR_RETURN(op.budget.deadline_ms,
                         RequireInt(*v, what + ": deadline_ms"));
  }
  if (const JsonValue* v = obj.Find("max_states")) {
    RTP_ASSIGN_OR_RETURN(op.budget.max_automaton_states,
                         RequireInt(*v, what + ": max_states"));
  }
  if (const JsonValue* v = obj.Find("max_steps")) {
    RTP_ASSIGN_OR_RETURN(op.budget.max_steps,
                         RequireInt(*v, what + ": max_steps"));
  }
  if (const JsonValue* v = obj.Find("max_memory_mb")) {
    RTP_ASSIGN_OR_RETURN(
        int64_t mb, RequireInt(*v, what + ": max_memory_mb",
                               std::numeric_limits<int64_t>::max() >> 20));
    op.budget.max_memory_bytes = mb << 20;
  }
  return op;
}

// Parses the `setup` or `mix` object, rejecting op names already used in
// either section (both share the stats namespace).
Status ParseOps(const JsonValue& ops, bool in_mix, const std::string& base_dir,
                WorkloadSpec* spec) {
  if (!ops.is_object()) {
    return InvalidArgumentError(in_mix ? "'mix' must be an object"
                                       : "'setup' must be an object");
  }
  std::vector<WorkloadOp>* out = in_mix ? &spec->mix : &spec->setup;
  for (const auto& [name, obj] : ops.object_items()) {
    for (const std::vector<WorkloadOp>* section : {&spec->setup, &spec->mix}) {
      for (const WorkloadOp& existing : *section) {
        if (existing.name == name) {
          return InvalidArgumentError("duplicate op '" + name + "'");
        }
      }
    }
    RTP_ASSIGN_OR_RETURN(WorkloadOp op,
                         ParseOp(name, obj, in_mix, *spec, base_dir));
    out->push_back(std::move(op));
  }
  return Status::OK();
}

Status ParseChaos(const JsonValue& chaos_v, WorkloadSpec* spec) {
  if (!chaos_v.is_object()) {
    return InvalidArgumentError("'chaos' must be an object");
  }
  RTP_RETURN_IF_ERROR(CheckKeys(
      chaos_v, "chaos",
      {"seed", "connect_refused", "read_stall", "write_stall", "torn_write",
       "corrupt_byte", "premature_close", "response_delay", "stall_ms",
       "delay_ms", "max_attempts", "call_timeout_ms"}));
  if (const JsonValue* v = chaos_v.Find("seed")) {
    RTP_ASSIGN_OR_RETURN(int64_t seed, RequireInt(*v, "chaos: seed"));
    spec->chaos.seed = static_cast<uint64_t>(seed);
  }
  struct RateField {
    const char* key;
    uint32_t* slot;
  };
  const RateField rate_fields[] = {
      {"connect_refused", &spec->chaos.connect_refused},
      {"read_stall", &spec->chaos.read_stall},
      {"write_stall", &spec->chaos.write_stall},
      {"torn_write", &spec->chaos.torn_write},
      {"corrupt_byte", &spec->chaos.corrupt_byte},
      {"premature_close", &spec->chaos.premature_close},
      {"response_delay", &spec->chaos.response_delay},
      {"stall_ms", &spec->chaos.stall_ms},
      {"delay_ms", &spec->chaos.delay_ms},
  };
  for (const RateField& field : rate_fields) {
    if (const JsonValue* v = chaos_v.Find(field.key)) {
      RTP_ASSIGN_OR_RETURN(
          int64_t parsed,
          RequireInt(*v, std::string("chaos: ") + field.key, 10000));
      *field.slot = static_cast<uint32_t>(parsed);
    }
  }
  if (const JsonValue* v = chaos_v.Find("max_attempts")) {
    RTP_ASSIGN_OR_RETURN(int64_t attempts,
                         RequireInt(*v, "chaos: max_attempts"));
    if (attempts == 0 || attempts > 16) {
      return InvalidArgumentError("chaos: max_attempts must be in [1, 16]");
    }
    spec->chaos_max_attempts = static_cast<int>(attempts);
  }
  if (const JsonValue* v = chaos_v.Find("call_timeout_ms")) {
    RTP_ASSIGN_OR_RETURN(int64_t timeout,
                         RequireInt(*v, "chaos: call_timeout_ms", kMaxInt));
    spec->chaos_call_timeout_ms = static_cast<int>(timeout);
  }
  Status valid = spec->chaos.Validate();
  if (!valid.ok()) return InvalidArgumentError("chaos: " + valid.message());
  return Status::OK();
}

StatusOr<WorkloadSpec> ParseSpecObject(const JsonValue& root,
                                       const std::string& base_dir) {
  if (!root.is_object()) {
    return InvalidArgumentError("workload spec must be a JSON object");
  }
  RTP_RETURN_IF_ERROR(CheckKeys(root, "workload spec",
                                {"name", "tenant", "generators", "setup", "mix",
                                 "count", "duration_s", "chaos"}));

  WorkloadSpec spec;
  spec.name = root.FindString("name");
  if (spec.name.empty()) return InvalidArgumentError("spec needs a 'name'");
  spec.tenant = root.FindString("tenant", "load");

  if (const JsonValue* chaos_v = root.Find("chaos")) {
    RTP_RETURN_IF_ERROR(ParseChaos(*chaos_v, &spec));
  }

  if (const JsonValue* generators = root.Find("generators")) {
    if (!generators->is_object()) {
      return InvalidArgumentError("'generators' must be an object");
    }
    for (const auto& [name, config] : generators->object_items()) {
      RTP_ASSIGN_OR_RETURN(GeneratorSpec gen,
                           ParseGeneratorSpec(name, config, base_dir));
      for (const GeneratorSpec& existing : spec.generators) {
        if (existing.name == name) {
          return InvalidArgumentError("duplicate generator '" + name + "'");
        }
      }
      spec.generators.push_back(std::move(gen));
    }
  }

  if (const JsonValue* setup = root.Find("setup")) {
    RTP_RETURN_IF_ERROR(ParseOps(*setup, /*in_mix=*/false, base_dir, &spec));
  }
  const JsonValue* mix = root.Find("mix");
  if (mix == nullptr || !mix->is_object() || mix->object_items().empty()) {
    return InvalidArgumentError("spec needs a non-empty 'mix' object");
  }
  RTP_RETURN_IF_ERROR(ParseOps(*mix, /*in_mix=*/true, base_dir, &spec));

  const JsonValue* count = root.Find("count");
  const JsonValue* duration = root.Find("duration_s");
  if ((count == nullptr) == (duration == nullptr)) {
    return InvalidArgumentError(
        "spec needs exactly one of 'count' or 'duration_s'");
  }
  if (count != nullptr) {
    RTP_ASSIGN_OR_RETURN(int64_t parsed, RequireInt(*count, "'count'"));
    if (parsed == 0) return InvalidArgumentError("'count' must be positive");
    spec.count = static_cast<uint64_t>(parsed);
  } else {
    if (!duration->is_number() || duration->number_value() <= 0) {
      return InvalidArgumentError("'duration_s' must be a positive number");
    }
    spec.duration_s = duration->number_value();
  }
  return spec;
}

}  // namespace

StatusOr<WorkloadSpec> ParseWorkloadSpec(std::string_view json_text,
                                         const std::string& base_dir) {
  auto value = serve::JsonValue::Parse(json_text);
  if (!value.ok()) {
    Status inner = value.status();
    return Status(inner.code(), "workload spec: " + inner.message());
  }
  return ParseSpecObject(*value, base_dir);
}

StatusOr<WorkloadSpec> LoadWorkloadSpecFile(const std::string& path) {
  RTP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  std::string base_dir;
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) base_dir = path.substr(0, slash);
  auto spec = ParseWorkloadSpec(text, base_dir);
  if (!spec.ok()) {
    Status inner = spec.status();
    return Status(inner.code(), path + ": " + inner.message());
  }
  return spec;
}

}  // namespace rtp::workload
