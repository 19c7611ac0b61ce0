#ifndef RTP_SERVE_PROTOCOL_H_
#define RTP_SERVE_PROTOCOL_H_

// Wire protocol of rtpd (docs/SERVING.md): line-delimited JSON over a
// local stream socket. Each request is one JSON object on one line; each
// response is one JSON object on one line, in request order.
//
// Request envelope (fields beyond the envelope are op-specific):
//   {"id":1,"v":1,"op":"eval","tenant":"acme",...}
//     id      caller-chosen integer, echoed verbatim in the response
//     v       protocol schema version; optional, defaults to current
//     op      one of: load eval checkfd matrix stats drop quota shutdown
//     tenant  registry namespace ([A-Za-z0-9_-]{1,64}; default "default")
//
// Response envelope:
//   {"id":1,"ok":true,"v":1,...}                        success
//   {"id":1,"ok":false,"v":1,"error":{"code":"...","message":"..."}}
// Error codes are the StatusCodeName spellings ("NOT_FOUND",
// "DEADLINE_EXCEEDED", ...), so resource trips are distinguishable from
// malformed requests on the wire.
//
// The version handshake is per-request: a request carrying an unsupported
// "v" is rejected with INVALID_ARGUMENT and the connection stays usable.
// Bump kProtocolSchemaVersion whenever a field is renamed, removed, or
// changes meaning; the golden transcripts under examples/serve/ pin the
// current shape.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "guard/guard.h"
#include "pattern/evaluator.h"
#include "serve/json.h"
#include "xml/document.h"

namespace rtp::serve {

inline constexpr int kProtocolSchemaVersion = 1;

// A decoded request envelope. Op-specific field use:
//   load     doc, text (the XML), budget?, profile?
//   eval     doc, text (the pattern DSL), budget?, profile?
//   checkfd  doc, text (the FD DSL), budget?, profile?
//   matrix   fds, classes (DSL texts), schema?, budget?, profile?
//   stats    metrics? (include the obs registry dump)
//   drop     doc
//   quota    budget (becomes the tenant's default)
//   shutdown —
struct Request {
  int64_t id = 0;
  std::string op;
  std::string tenant = "default";
  std::string doc;
  std::string text;
  std::vector<std::string> fds;
  std::vector<std::string> classes;
  std::string schema;
  // Budget from the request's "budget" object ({"deadline_ms":N,
  // "max_states":N,"max_steps":N,"max_memory_mb":N}, each optional,
  // 0 = unlimited). has_budget distinguishes "no budget object" (use the
  // tenant default) from an explicit all-zero (unlimited) budget.
  guard::ExecutionBudget budget;
  bool has_budget = false;
  bool profile = false;
  bool metrics = false;
};

// True for tenant names safe to embed in metric names and logs:
// [A-Za-z0-9_-], 1..64 characters.
bool IsValidTenantName(std::string_view name);

bool IsKnownOp(std::string_view op);

// Validates the envelope (id, v, op, tenant) and field shapes. Op-specific
// presence requirements (e.g. eval needs doc+text) are enforced by the
// server, which can phrase better errors.
StatusOr<Request> DecodeRequest(const JsonValue& json);

// Builds the wire object for `req` (always includes id, v, op, tenant;
// op-specific fields only when set). DecodeRequest(EncodeRequest(r))
// reproduces r.
JsonValue EncodeRequest(const Request& req);

// Response envelopes. Handlers Add() their op-specific fields onto the
// success envelope.
JsonValue MakeOkResponse(int64_t id);
JsonValue MakeErrorResponse(int64_t id, const Status& status);

// The success envelope of an eval answer: "count", then "tuples" in the
// order given (pattern::SelectTuples gives document order). The first
// occurrence of a node is rendered by xml::AppendXmlSubtree into one
// reused buffer and escaped straight into the text of the "tuples" array,
// a JsonValue::Raw, so no JsonValue is built per tuple. When the arity is
// above 1, an arena-indexed slot records which range of the text holds
// that escaped string, and each repeat of the node appends that range of
// the text to itself. The serialized bytes equal those of one
// JsonValue::String(xml::WriteXmlSubtree(...)) per subtree
// (fuzz::CheckEvalResponseBytes).
JsonValue MakeEvalResponse(int64_t id, const xml::Document& doc,
                           const pattern::SelectedTuples& tuples);

// Overload shed: RESOURCE_EXHAUSTED plus a "retry_after_ms" backoff hint
// inside the error object. Only queue-full sheds carry the hint — budget
// trips share the code but never the field, which is how clients tell a
// retryable overload from a request that is simply too expensive.
JsonValue MakeShedResponse(int64_t id, int64_t retry_after_ms);

// Extracts the Status from a response envelope: OK for {"ok":true},
// the decoded error for {"ok":false}, INTERNAL for malformed envelopes.
Status ResponseStatus(const JsonValue& response);

// The "retry_after_ms" hint of a shed response envelope, or 0 when the
// response carries none (success, or a non-overload error).
int64_t ResponseRetryAfterMs(const JsonValue& response);

// Inverse of StatusCodeName (kInternal for unknown spellings, so foreign
// codes degrade to a generic error instead of being dropped).
StatusCode StatusCodeFromName(std::string_view name);

}  // namespace rtp::serve

#endif  // RTP_SERVE_PROTOCOL_H_
