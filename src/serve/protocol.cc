#include "serve/protocol.h"

#include "common/json_string.h"
#include "xml/xml_io.h"

namespace rtp::serve {
namespace {

StatusOr<std::vector<std::string>> DecodeStringArray(const JsonValue& parent,
                                                     std::string_view key) {
  std::vector<std::string> out;
  const JsonValue* v = parent.Find(key);
  if (v == nullptr) return out;
  if (!v->is_array()) {
    return InvalidArgumentError("'" + std::string(key) +
                                "' must be an array of strings");
  }
  out.reserve(v->array_items().size());
  for (const JsonValue& item : v->array_items()) {
    if (!item.is_string()) {
      return InvalidArgumentError("'" + std::string(key) +
                                  "' must be an array of strings");
    }
    out.push_back(item.string_value());
  }
  return out;
}

Status DecodeBudgetField(const JsonValue& budget, std::string_view key,
                         int64_t* out) {
  const JsonValue* v = budget.Find(key);
  if (v == nullptr) return Status::OK();
  if (!v->is_int() || v->int_value() < 0) {
    return InvalidArgumentError("budget field '" + std::string(key) +
                                "' must be a nonnegative integer");
  }
  *out = v->int_value();
  return Status::OK();
}

JsonValue EncodeBudget(const guard::ExecutionBudget& budget) {
  JsonValue b = JsonValue::Object();
  if (budget.deadline_ms > 0) b.Add("deadline_ms", JsonValue::Int(budget.deadline_ms));
  if (budget.max_automaton_states > 0) {
    b.Add("max_states", JsonValue::Int(budget.max_automaton_states));
  }
  if (budget.max_steps > 0) b.Add("max_steps", JsonValue::Int(budget.max_steps));
  if (budget.max_memory_bytes > 0) {
    b.Add("max_memory_mb", JsonValue::Int(budget.max_memory_bytes >> 20));
  }
  return b;
}

}  // namespace

bool IsValidTenantName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool IsKnownOp(std::string_view op) {
  return op == "load" || op == "eval" || op == "checkfd" || op == "matrix" ||
         op == "stats" || op == "drop" || op == "quota" || op == "shutdown";
}

StatusOr<Request> DecodeRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return InvalidArgumentError("request must be a JSON object");
  }
  Request req;
  const JsonValue* id = json.Find("id");
  if (id == nullptr || !id->is_int()) {
    return InvalidArgumentError("request requires an integer 'id'");
  }
  req.id = id->int_value();
  if (const JsonValue* v = json.Find("v")) {
    if (!v->is_int() || v->int_value() != kProtocolSchemaVersion) {
      return InvalidArgumentError(
          "unsupported protocol version (server speaks v" +
          std::to_string(kProtocolSchemaVersion) + ")");
    }
  }
  req.op = json.FindString("op");
  if (!IsKnownOp(req.op)) {
    return InvalidArgumentError("unknown op '" + req.op + "'");
  }
  req.tenant = json.FindString("tenant", "default");
  if (!IsValidTenantName(req.tenant)) {
    return InvalidArgumentError(
        "tenant must match [A-Za-z0-9_-]{1,64}");
  }
  if (const JsonValue* doc = json.Find("doc")) {
    if (!doc->is_string()) return InvalidArgumentError("'doc' must be a string");
    req.doc = doc->string_value();
  }
  if (const JsonValue* text = json.Find("text")) {
    if (!text->is_string()) {
      return InvalidArgumentError("'text' must be a string");
    }
    req.text = text->string_value();
  }
  RTP_ASSIGN_OR_RETURN(req.fds, DecodeStringArray(json, "fds"));
  RTP_ASSIGN_OR_RETURN(req.classes, DecodeStringArray(json, "classes"));
  if (const JsonValue* schema = json.Find("schema")) {
    if (!schema->is_string()) {
      return InvalidArgumentError("'schema' must be a string");
    }
    req.schema = schema->string_value();
  }
  if (const JsonValue* budget = json.Find("budget")) {
    if (!budget->is_object()) {
      return InvalidArgumentError("'budget' must be an object");
    }
    req.has_budget = true;
    RTP_RETURN_IF_ERROR(
        DecodeBudgetField(*budget, "deadline_ms", &req.budget.deadline_ms));
    RTP_RETURN_IF_ERROR(DecodeBudgetField(*budget, "max_states",
                                          &req.budget.max_automaton_states));
    RTP_RETURN_IF_ERROR(
        DecodeBudgetField(*budget, "max_steps", &req.budget.max_steps));
    int64_t mb = 0;
    RTP_RETURN_IF_ERROR(DecodeBudgetField(*budget, "max_memory_mb", &mb));
    if (mb > (int64_t{1} << 40)) {
      return InvalidArgumentError("budget field 'max_memory_mb' is too large");
    }
    if (mb > 0) req.budget.max_memory_bytes = mb << 20;
  }
  if (const JsonValue* profile = json.Find("profile")) {
    if (!profile->is_bool()) {
      return InvalidArgumentError("'profile' must be a boolean");
    }
    req.profile = profile->bool_value();
  }
  if (const JsonValue* metrics = json.Find("metrics")) {
    if (!metrics->is_bool()) {
      return InvalidArgumentError("'metrics' must be a boolean");
    }
    req.metrics = metrics->bool_value();
  }
  return req;
}

JsonValue EncodeRequest(const Request& req) {
  JsonValue v = JsonValue::Object();
  v.Add("id", JsonValue::Int(req.id));
  v.Add("v", JsonValue::Int(kProtocolSchemaVersion));
  v.Add("op", JsonValue::String(req.op));
  v.Add("tenant", JsonValue::String(req.tenant));
  if (!req.doc.empty()) v.Add("doc", JsonValue::String(req.doc));
  if (!req.text.empty()) v.Add("text", JsonValue::String(req.text));
  if (!req.fds.empty()) {
    JsonValue fds = JsonValue::Array();
    for (const std::string& fd : req.fds) fds.Push(JsonValue::String(fd));
    v.Add("fds", std::move(fds));
  }
  if (!req.classes.empty()) {
    JsonValue classes = JsonValue::Array();
    for (const std::string& c : req.classes) {
      classes.Push(JsonValue::String(c));
    }
    v.Add("classes", std::move(classes));
  }
  if (!req.schema.empty()) v.Add("schema", JsonValue::String(req.schema));
  if (req.has_budget) v.Add("budget", EncodeBudget(req.budget));
  if (req.profile) v.Add("profile", JsonValue::Bool(true));
  if (req.metrics) v.Add("metrics", JsonValue::Bool(true));
  return v;
}

JsonValue MakeOkResponse(int64_t id) {
  JsonValue v = JsonValue::Object();
  v.Add("id", JsonValue::Int(id));
  v.Add("ok", JsonValue::Bool(true));
  v.Add("v", JsonValue::Int(kProtocolSchemaVersion));
  return v;
}

JsonValue MakeErrorResponse(int64_t id, const Status& status) {
  JsonValue v = JsonValue::Object();
  v.Add("id", JsonValue::Int(id));
  v.Add("ok", JsonValue::Bool(false));
  v.Add("v", JsonValue::Int(kProtocolSchemaVersion));
  JsonValue error = JsonValue::Object();
  error.Add("code", JsonValue::String(StatusCodeName(status.code())));
  error.Add("message", JsonValue::String(status.message()));
  v.Add("error", std::move(error));
  return v;
}

JsonValue MakeEvalResponse(int64_t id, const xml::Document& doc,
                           const pattern::SelectedTuples& tuples) {
  // The escaped string of the k-th node rendered sits at ranges[k - 1] of
  // `rows`, and slot[n] holds k for node n (0 until n is rendered).
  // Distinct tuples of arity 1 cannot repeat a node, so they need no slots.
  std::vector<uint32_t> slot(tuples.arity > 1 ? doc.ArenaSize() : 0);
  std::vector<std::pair<size_t, size_t>> ranges;  // (begin, size)
  std::string rows = "[";
  std::string subtree;
  for (size_t i = 0; i < tuples.count; ++i) {
    if (i > 0) rows.push_back(',');
    rows.push_back('[');
    for (size_t j = 0; j < tuples.arity; ++j) {
      if (j > 0) rows.push_back(',');
      const xml::NodeId n = tuples.nodes[i * tuples.arity + j];
      if (!slot.empty() && slot[n] != 0) {
        const auto [begin, size] = ranges[slot[n] - 1];
        rows.append(rows, begin, size);
        continue;
      }
      const size_t begin = rows.size();
      subtree.clear();
      xml::AppendXmlSubtree(doc, n, /*indent=*/false, &subtree);
      AppendJsonString(&rows, subtree);
      if (!slot.empty()) {
        ranges.emplace_back(begin, rows.size() - begin);
        slot[n] = static_cast<uint32_t>(ranges.size());
      }
    }
    rows.push_back(']');
  }
  rows.push_back(']');
  JsonValue response = MakeOkResponse(id);
  response.Add("count", JsonValue::Int(static_cast<int64_t>(tuples.count)));
  response.Add("tuples", JsonValue::Raw(std::move(rows)));
  return response;
}

JsonValue MakeShedResponse(int64_t id, int64_t retry_after_ms) {
  JsonValue v = JsonValue::Object();
  v.Add("id", JsonValue::Int(id));
  v.Add("ok", JsonValue::Bool(false));
  v.Add("v", JsonValue::Int(kProtocolSchemaVersion));
  JsonValue error = JsonValue::Object();
  error.Add("code",
            JsonValue::String(StatusCodeName(StatusCode::kResourceExhausted)));
  error.Add("message",
            JsonValue::String("server overloaded: request queue is full"));
  error.Add("retry_after_ms", JsonValue::Int(retry_after_ms));
  v.Add("error", std::move(error));
  return v;
}

Status ResponseStatus(const JsonValue& response) {
  const JsonValue* ok = response.Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return InternalError("malformed response envelope: " +
                         response.Serialize());
  }
  if (ok->bool_value()) return Status::OK();
  const JsonValue* error = response.Find("error");
  if (error == nullptr || !error->is_object()) {
    return InternalError("error response without error object");
  }
  return Status(StatusCodeFromName(error->FindString("code")),
                error->FindString("message"));
}

int64_t ResponseRetryAfterMs(const JsonValue& response) {
  const JsonValue* error = response.Find("error");
  if (error == nullptr || !error->is_object()) return 0;
  return error->FindInt("retry_after_ms");
}

StatusCode StatusCodeFromName(std::string_view name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kOutOfRange,
      StatusCode::kFailedPrecondition, StatusCode::kParseError,
      StatusCode::kUnimplemented, StatusCode::kInternal,
      StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted,
      StatusCode::kCancelled,        StatusCode::kUnavailable,
      StatusCode::kTransportError,
  };
  for (StatusCode code : kCodes) {
    if (name == StatusCodeName(code)) return code;
  }
  return StatusCode::kInternal;
}

}  // namespace rtp::serve
