#include "workload/spec.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "serve/json.h"
#include "workload/generator.h"

namespace rtp::workload {
namespace {

// Nested sub-workloads multiply the executor's recursion depth; both caps
// are far above any sane spec and exist purely so hostile input degrades
// into a structured error (the same posture as the DSL parsers' caps).
constexpr int kMaxWorkloadNesting = 8;
constexpr size_t kMaxGraphDepth = 512;

using serve::JsonValue;

Status NodeError(const std::string& node, const std::string& message) {
  return InvalidArgumentError("workload node '" + node + "': " + message);
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

StatusOr<int64_t> RequireNonNegativeInt(const JsonValue& v,
                                        const std::string& what) {
  if (!v.is_int() || v.int_value() < 0) {
    return InvalidArgumentError(what + " must be a nonnegative integer");
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

Status ParseTextGenParams(const JsonValue& config, fuzz::TextGenParams* out) {
  struct Field {
    const char* key;
    uint32_t* slot;
  };
  const Field fields[] = {
      {"num_labels", &out->num_labels},
      {"max_regex_nodes", &out->max_regex_nodes},
      {"wildcard_percent", &out->wildcard_percent},
      {"max_template_nodes", &out->max_template_nodes},
      {"max_schema_elements", &out->max_schema_elements},
      {"max_xml_nodes", &out->max_xml_nodes},
      {"max_path_steps", &out->max_path_steps},
      {"value_pool", &out->value_pool},
  };
  for (const Field& field : fields) {
    if (const JsonValue* v = config.Find(field.key)) {
      RTP_ASSIGN_OR_RETURN(int64_t parsed,
                           RequireNonNegativeInt(*v, field.key));
      *field.slot = static_cast<uint32_t>(parsed);
    }
  }
  return Status::OK();
}

StatusOr<GeneratorSpec> ParseGeneratorSpec(const std::string& name,
                                           const JsonValue& config,
                                           const std::string& base_dir) {
  if (!config.is_object()) {
    return InvalidArgumentError("generator '" + name + "' must be an object");
  }
  GeneratorSpec spec;
  spec.name = name;
  spec.kind = config.FindString("kind");
  if (spec.kind.empty()) {
    return InvalidArgumentError("generator '" + name + "' needs a 'kind'");
  }
  Status params_ok = ParseTextGenParams(config, &spec.text_params);
  if (!params_ok.ok()) {
    return InvalidArgumentError("generator '" + name +
                                "': " + params_ok.message());
  }
  if (const JsonValue* v = config.Find("candidates")) {
    RTP_ASSIGN_OR_RETURN(int64_t candidates,
                         RequireNonNegativeInt(*v, "generator '" + name +
                                                       "': candidates"));
    if (candidates == 0) {
      return InvalidArgumentError("generator '" + name +
                                  "': candidates must be positive");
    }
    spec.exam_candidates = static_cast<uint32_t>(candidates);
  }
  if (const JsonValue* v = config.Find("files")) {
    RTP_ASSIGN_OR_RETURN(
        std::vector<std::string> files,
        ParseStringArray(*v, "generator '" + name + "': files"));
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

struct NodeKindEntry {
  std::string_view name;
  NodeKind kind;
};
constexpr NodeKindEntry kNodeKinds[] = {
    {"eval", NodeKind::kEval},
    {"checkfd", NodeKind::kCheckFd},
    {"matrix", NodeKind::kMatrix},
    {"load", NodeKind::kLoad},
    {"stats", NodeKind::kStats},
    {"random_choice", NodeKind::kRandomChoice},
    {"sequence", NodeKind::kSequence},
    {"do_all", NodeKind::kDoAll},
    {"loop", NodeKind::kLoop},
    {"workload", NodeKind::kWorkload},
};

StatusOr<WorkloadSpec> ParseSpecObject(const JsonValue& root_value,
                                       const std::string& base_dir,
                                       int nesting);

// Parses one node object. Name references (children/body) are resolved by
// the caller once every node name is known.
struct PendingRefs {
  std::vector<std::string> children;
  std::string body;
};

StatusOr<WorkloadNode> ParseNodeObject(const std::string& name,
                                       const JsonValue& obj,
                                       const std::string& base_dir,
                                       int nesting,
                                       const WorkloadSpec& spec,
                                       PendingRefs* refs) {
  if (!obj.is_object()) {
    return NodeError(name, "must be an object");
  }
  WorkloadNode node;
  node.name = name;
  const std::string op = obj.FindString("op");
  if (op.empty()) return NodeError(name, "needs an 'op'");
  bool known = false;
  for (const NodeKindEntry& entry : kNodeKinds) {
    if (entry.name == op) {
      node.kind = entry.kind;
      known = true;
      break;
    }
  }
  if (!known) return NodeError(name, "unknown op '" + op + "'");

  switch (node.kind) {
    case NodeKind::kEval:
    case NodeKind::kCheckFd:
    case NodeKind::kLoad: {
      RTP_RETURN_IF_ERROR(CheckKeys(
          obj, "workload node '" + name + "'",
          {"op", "doc", "text", "file", "generator", "deadline_ms",
           "max_states", "max_steps", "max_memory_mb"}));
      node.doc = obj.FindString("doc");
      if (node.doc.empty()) return NodeError(name, "needs a 'doc'");
      int sources = 0;
      if (const JsonValue* v = obj.Find("text")) {
        if (!v->is_string()) return NodeError(name, "'text' must be a string");
        node.text = v->string_value();
        ++sources;
      }
      if (const JsonValue* v = obj.Find("file")) {
        if (!v->is_string()) return NodeError(name, "'file' must be a string");
        RTP_ASSIGN_OR_RETURN(
            node.text, ReadFile(ResolvePath(base_dir, v->string_value())));
        ++sources;
      }
      if (const JsonValue* v = obj.Find("generator")) {
        if (!v->is_string()) {
          return NodeError(name, "'generator' must be a string");
        }
        node.generator = kNoNode;
        for (size_t i = 0; i < spec.generators.size(); ++i) {
          if (spec.generators[i].name == v->string_value()) {
            node.generator = i;
            break;
          }
        }
        if (node.generator == kNoNode) {
          return NodeError(name, "references unknown generator '" +
                                     v->string_value() + "'");
        }
        ++sources;
      }
      if (sources != 1) {
        return NodeError(name,
                         "needs exactly one payload source out of "
                         "'text', 'file', 'generator'");
      }
      break;
    }
    case NodeKind::kMatrix: {
      RTP_RETURN_IF_ERROR(CheckKeys(
          obj, "workload node '" + name + "'",
          {"op", "fds", "classes", "schema", "deadline_ms", "max_states",
           "max_steps", "max_memory_mb"}));
      const JsonValue* fds = obj.Find("fds");
      const JsonValue* classes = obj.Find("classes");
      if (fds == nullptr || classes == nullptr) {
        return NodeError(name, "needs 'fds' and 'classes' arrays");
      }
      RTP_ASSIGN_OR_RETURN(node.fd_texts,
                           ParseStringArray(*fds, "node '" + name + "' fds"));
      RTP_ASSIGN_OR_RETURN(
          node.class_texts,
          ParseStringArray(*classes, "node '" + name + "' classes"));
      if (node.fd_texts.empty() || node.class_texts.empty()) {
        return NodeError(name, "'fds' and 'classes' must be non-empty");
      }
      node.schema_text = obj.FindString("schema");
      break;
    }
    case NodeKind::kStats: {
      RTP_RETURN_IF_ERROR(
          CheckKeys(obj, "workload node '" + name + "'", {"op"}));
      break;
    }
    case NodeKind::kRandomChoice:
    case NodeKind::kSequence:
    case NodeKind::kDoAll: {
      RTP_RETURN_IF_ERROR(CheckKeys(obj, "workload node '" + name + "'",
                                    {"op", "children", "weights"}));
      const JsonValue* children = obj.Find("children");
      if (children == nullptr) return NodeError(name, "needs 'children'");
      RTP_ASSIGN_OR_RETURN(
          refs->children,
          ParseStringArray(*children, "node '" + name + "' children"));
      if (refs->children.empty()) {
        return NodeError(name, "'children' must be non-empty");
      }
      if (const JsonValue* weights = obj.Find("weights")) {
        if (node.kind != NodeKind::kRandomChoice) {
          return NodeError(name, "'weights' only applies to random_choice");
        }
        if (!weights->is_array() ||
            weights->array_items().size() != refs->children.size()) {
          return NodeError(name, "'weights' must match 'children' in length");
        }
        for (const JsonValue& w : weights->array_items()) {
          RTP_ASSIGN_OR_RETURN(
              int64_t weight,
              RequireNonNegativeInt(w, "node '" + name + "' weight"));
          if (weight == 0) {
            return NodeError(name, "weights must be positive integers");
          }
          node.weights.push_back(static_cast<uint64_t>(weight));
        }
      } else if (node.kind == NodeKind::kRandomChoice) {
        node.weights.assign(refs->children.size(), 1);
      }
      break;
    }
    case NodeKind::kLoop: {
      RTP_RETURN_IF_ERROR(CheckKeys(obj, "workload node '" + name + "'",
                                    {"op", "body", "count", "duration_s"}));
      refs->body = obj.FindString("body");
      if (refs->body.empty()) return NodeError(name, "needs a 'body'");
      const JsonValue* count = obj.Find("count");
      const JsonValue* duration = obj.Find("duration_s");
      if ((count == nullptr) == (duration == nullptr)) {
        return NodeError(name,
                         "needs exactly one of 'count' or 'duration_s'");
      }
      if (count != nullptr) {
        RTP_ASSIGN_OR_RETURN(
            int64_t parsed,
            RequireNonNegativeInt(*count, "node '" + name + "' count"));
        if (parsed == 0) return NodeError(name, "'count' must be positive");
        node.count = static_cast<uint64_t>(parsed);
      } else {
        if (!duration->is_number() || duration->number_value() <= 0) {
          return NodeError(name, "'duration_s' must be a positive number");
        }
        node.duration_s = duration->number_value();
      }
      break;
    }
    case NodeKind::kWorkload: {
      RTP_RETURN_IF_ERROR(
          CheckKeys(obj, "workload node '" + name + "'", {"op", "spec"}));
      const JsonValue* sub = obj.Find("spec");
      if (sub == nullptr || !sub->is_object()) {
        return NodeError(name, "needs an inline 'spec' object");
      }
      auto sub_spec = ParseSpecObject(*sub, base_dir, nesting + 1);
      if (!sub_spec.ok()) {
        Status inner = sub_spec.status();
        return Status(inner.code(),
                      "workload node '" + name + "': " + inner.message());
      }
      node.sub = std::make_unique<WorkloadSpec>(std::move(sub_spec).value());
      break;
    }
  }

  if (node.IsOp()) {
    if (const JsonValue* v = obj.Find("deadline_ms")) {
      RTP_ASSIGN_OR_RETURN(node.budget.deadline_ms,
                           RequireNonNegativeInt(*v, "deadline_ms"));
    }
    if (const JsonValue* v = obj.Find("max_states")) {
      RTP_ASSIGN_OR_RETURN(node.budget.max_automaton_states,
                           RequireNonNegativeInt(*v, "max_states"));
    }
    if (const JsonValue* v = obj.Find("max_steps")) {
      RTP_ASSIGN_OR_RETURN(node.budget.max_steps,
                           RequireNonNegativeInt(*v, "max_steps"));
    }
    if (const JsonValue* v = obj.Find("max_memory_mb")) {
      RTP_ASSIGN_OR_RETURN(int64_t mb,
                           RequireNonNegativeInt(*v, "max_memory_mb"));
      node.budget.max_memory_bytes = mb << 20;
    }
  }
  return node;
}

// Rejects cycles and over-deep chains with an iterative three-color DFS
// over children/body edges (nested sub-workloads are separate graphs,
// validated by their own ParseSpecObject call).
Status CheckAcyclic(const WorkloadSpec& spec) {
  enum class Color : uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> colors(spec.nodes.size(), Color::kWhite);

  auto edges = [&spec](size_t i) {
    std::vector<size_t> out = spec.nodes[i].children;
    if (spec.nodes[i].body != kNoNode) out.push_back(spec.nodes[i].body);
    return out;
  };

  for (size_t start = 0; start < spec.nodes.size(); ++start) {
    if (colors[start] != Color::kWhite) continue;
    // Stack of (node, next-edge-index) frames.
    std::vector<std::pair<size_t, size_t>> stack{{start, 0}};
    colors[start] = Color::kGray;
    while (!stack.empty()) {
      auto& [current, edge_idx] = stack.back();
      std::vector<size_t> out = edges(current);
      if (edge_idx < out.size()) {
        size_t next = out[edge_idx++];
        if (colors[next] == Color::kGray) {
          return InvalidArgumentError(
              "workload graph has a cycle through node '" +
              spec.nodes[next].name + "'");
        }
        if (colors[next] == Color::kWhite) {
          colors[next] = Color::kGray;
          if (stack.size() >= kMaxGraphDepth) {
            return ResourceExhaustedError(
                "workload graph deeper than " +
                std::to_string(kMaxGraphDepth) + " nodes");
          }
          stack.emplace_back(next, 0);
        }
      } else {
        colors[current] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return Status::OK();
}

StatusOr<WorkloadSpec> ParseSpecObject(const JsonValue& root_value,
                                       const std::string& base_dir,
                                       int nesting) {
  if (nesting > kMaxWorkloadNesting) {
    return ResourceExhaustedError("workload specs nested deeper than " +
                                  std::to_string(kMaxWorkloadNesting));
  }
  if (!root_value.is_object()) {
    return InvalidArgumentError("workload spec must be a JSON object");
  }
  RTP_RETURN_IF_ERROR(CheckKeys(
      root_value, "workload spec",
      {"name", "tenant", "root", "setup", "nodes", "generators", "chaos"}));

  WorkloadSpec spec;
  spec.name = root_value.FindString("name");
  if (spec.name.empty()) return InvalidArgumentError("spec needs a 'name'");
  spec.tenant = root_value.FindString("tenant", "load");

  if (const JsonValue* chaos_v = root_value.Find("chaos")) {
    if (nesting > 0) {
      return InvalidArgumentError(
          "'chaos' only applies to the top-level spec");
    }
    if (!chaos_v->is_object()) {
      return InvalidArgumentError("'chaos' must be an object");
    }
    RTP_RETURN_IF_ERROR(CheckKeys(
        *chaos_v, "chaos",
        {"seed", "connect_refused", "read_stall", "write_stall", "torn_write",
         "corrupt_byte", "premature_close", "response_delay", "stall_ms",
         "delay_ms", "max_attempts", "call_timeout_ms"}));
    if (const JsonValue* v = chaos_v->Find("seed")) {
      RTP_ASSIGN_OR_RETURN(int64_t seed,
                           RequireNonNegativeInt(*v, "chaos: seed"));
      spec.chaos.seed = static_cast<uint64_t>(seed);
    }
    struct RateField {
      const char* key;
      uint32_t* slot;
    };
    const RateField rate_fields[] = {
        {"connect_refused", &spec.chaos.connect_refused},
        {"read_stall", &spec.chaos.read_stall},
        {"write_stall", &spec.chaos.write_stall},
        {"torn_write", &spec.chaos.torn_write},
        {"corrupt_byte", &spec.chaos.corrupt_byte},
        {"premature_close", &spec.chaos.premature_close},
        {"response_delay", &spec.chaos.response_delay},
        {"stall_ms", &spec.chaos.stall_ms},
        {"delay_ms", &spec.chaos.delay_ms},
    };
    for (const RateField& field : rate_fields) {
      if (const JsonValue* v = chaos_v->Find(field.key)) {
        RTP_ASSIGN_OR_RETURN(
            int64_t parsed,
            RequireNonNegativeInt(*v, std::string("chaos: ") + field.key));
        if (parsed > 10000) {
          return InvalidArgumentError(std::string("chaos: ") + field.key +
                                      " must be at most 10000");
        }
        *field.slot = static_cast<uint32_t>(parsed);
      }
    }
    if (const JsonValue* v = chaos_v->Find("max_attempts")) {
      RTP_ASSIGN_OR_RETURN(int64_t attempts,
                           RequireNonNegativeInt(*v, "chaos: max_attempts"));
      if (attempts == 0 || attempts > 16) {
        return InvalidArgumentError("chaos: max_attempts must be in [1, 16]");
      }
      spec.chaos_max_attempts = static_cast<int>(attempts);
    }
    if (const JsonValue* v = chaos_v->Find("call_timeout_ms")) {
      RTP_ASSIGN_OR_RETURN(
          int64_t timeout, RequireNonNegativeInt(*v, "chaos: call_timeout_ms"));
      if (timeout > (int64_t{1} << 31)) {
        return InvalidArgumentError("chaos: call_timeout_ms is too large");
      }
      spec.chaos_call_timeout_ms = static_cast<int>(timeout);
    }
    Status valid = spec.chaos.Validate();
    if (!valid.ok()) {
      return InvalidArgumentError("chaos: " + valid.message());
    }
  }

  if (const JsonValue* generators = root_value.Find("generators")) {
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

  const JsonValue* nodes = root_value.Find("nodes");
  if (nodes == nullptr || !nodes->is_object() ||
      nodes->object_items().empty()) {
    return InvalidArgumentError("spec needs a non-empty 'nodes' object");
  }
  std::unordered_map<std::string, size_t> index_of;
  std::vector<PendingRefs> pending;
  for (const auto& [name, obj] : nodes->object_items()) {
    if (index_of.count(name) != 0) {
      return InvalidArgumentError("duplicate node '" + name + "'");
    }
    PendingRefs refs;
    RTP_ASSIGN_OR_RETURN(
        WorkloadNode node,
        ParseNodeObject(name, obj, base_dir, nesting, spec, &refs));
    index_of.emplace(name, spec.nodes.size());
    spec.nodes.push_back(std::move(node));
    pending.push_back(std::move(refs));
  }

  auto resolve = [&index_of](const std::string& from,
                             const std::string& target) -> StatusOr<size_t> {
    auto it = index_of.find(target);
    if (it == index_of.end()) {
      return NodeError(from, "references unknown node '" + target + "'");
    }
    return it->second;
  };
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    for (const std::string& child : pending[i].children) {
      RTP_ASSIGN_OR_RETURN(size_t idx, resolve(spec.nodes[i].name, child));
      spec.nodes[i].children.push_back(idx);
    }
    if (!pending[i].body.empty()) {
      RTP_ASSIGN_OR_RETURN(spec.nodes[i].body,
                           resolve(spec.nodes[i].name, pending[i].body));
    }
  }

  const std::string root_name = root_value.FindString("root");
  if (root_name.empty()) return InvalidArgumentError("spec needs a 'root'");
  RTP_ASSIGN_OR_RETURN(spec.root, resolve("(root)", root_name));

  if (const JsonValue* setup = root_value.Find("setup")) {
    RTP_ASSIGN_OR_RETURN(std::vector<std::string> names,
                         ParseStringArray(*setup, "'setup'"));
    for (const std::string& name : names) {
      RTP_ASSIGN_OR_RETURN(size_t idx, resolve("(setup)", name));
      spec.setup.push_back(idx);
    }
  }

  RTP_RETURN_IF_ERROR(CheckAcyclic(spec));
  return spec;
}

}  // namespace

const char* NodeKindName(NodeKind kind) {
  for (const NodeKindEntry& entry : kNodeKinds) {
    if (entry.kind == kind) return entry.name.data();
  }
  return "unknown";
}

size_t WorkloadSpec::FindNode(std::string_view node_name) const {
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name == node_name) return i;
  }
  return kNoNode;
}

StatusOr<WorkloadSpec> ParseWorkloadSpec(std::string_view json_text,
                                         const std::string& base_dir) {
  auto value = serve::JsonValue::Parse(json_text);
  if (!value.ok()) {
    Status inner = value.status();
    return Status(inner.code(), "workload spec: " + inner.message());
  }
  return ParseSpecObject(*value, base_dir, /*nesting=*/0);
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
