// serve_point and serve_scan: two closed-loop clients drive a real rtpd
// through serve::Client; a traced run also replays the same request
// sequence in process, one call per layer, to split served latency into
// transport, server overhead and engine layers.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.h"
#include "fd/fd_checker.h"
#include "fd/functional_dependency.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_parser.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "xml/xml_io.h"

namespace perfbench {
namespace {

using rtp::serve::JsonValue;

constexpr const char* kTenant = "bench";
constexpr int kClients = 2;
constexpr uint32_t kLoad = UINT32_MAX;  // ServeOp::query of a load

// ---- Inputs and ground truth (from gen.py). ----

struct Answer {
  std::vector<std::vector<std::string>> tuples;  // eval
  bool satisfied = true;                          // checkfd
  int64_t mappings = 0;
  int64_t groups = 0;
};

struct Query {
  std::string name;
  bool eval = true;
  std::string templ;  // variables written as %name%
  std::string text;
};

struct Doc {
  std::string name;
  std::string xml;
  int64_t nodes = 0;
  std::vector<Answer> expect;  // per query
};

struct ServeInputs {
  std::vector<Query> queries;
  std::vector<Doc> docs;
  std::vector<Doc> scratch;  // serve_scan: replacement documents for loads
};

Doc ParseDoc(const JsonValue& j, size_t num_queries) {
  Doc doc{j.FindString("name"), j.FindString("xml"), j.FindInt("nodes"), {}};
  const JsonValue* expect = j.Find("expect");
  for (size_t q = 0; expect != nullptr && q < num_queries; ++q) {
    const JsonValue& e = expect->array_items()[q];
    Answer a;
    if (const JsonValue* tuples = e.Find("tuples")) {
      for (const JsonValue& row : tuples->array_items()) {
        std::vector<std::string> tuple;
        for (const JsonValue& s : row.array_items()) {
          tuple.push_back(s.string_value());
        }
        a.tuples.push_back(std::move(tuple));
      }
    } else {
      a.satisfied = e.FindBool("satisfied");
      a.mappings = e.FindInt("mappings");
      a.groups = e.FindInt("groups");
    }
    doc.expect.push_back(std::move(a));
  }
  return doc;
}

ServeInputs LoadServeInputs(const JsonValue& in) {
  ServeInputs out;
  for (const JsonValue& q : in.Find("queries")->array_items()) {
    out.queries.push_back(
        Query{q.FindString("name"), q.FindString("op") == "eval",
              q.FindString("template"), q.FindString("text")});
  }
  for (const JsonValue& d : in.Find("docs")->array_items()) {
    out.docs.push_back(ParseDoc(d, out.queries.size()));
  }
  for (const JsonValue& d : in.Find("scratch")->array_items()) {
    out.scratch.push_back(ParseDoc(d, 0));
  }
  return out;
}

// ---- The seeded request sequence. ----

struct ServeOp {
  uint32_t doc;     // docs index for reads, scratch index for loads
  uint32_t query;   // queries index, or kLoad
  int32_t variant;  // index into ClientPlan::variants; -1 = fixed text
};

struct ClientPlan {
  std::vector<ServeOp> ops;
  std::vector<std::string> variants;
};

// The query text with every %var% renamed to var_<suffix>: new text, same
// answer.
std::string RenameVariables(const std::string& templ, uint64_t suffix) {
  std::string out;
  bool in_var = false;
  for (char c : templ) {
    if (c == '%') {
      if (in_var) out += "_v" + std::to_string(suffix);
      in_var = !in_var;
      continue;
    }
    out.push_back(c);
  }
  return out;
}

// The mix is drawn in shuffled blocks that hold every op type in fixed
// proportion, so each run of a workload has the same mix whatever its
// seed; the seed picks the order within each block and the documents.
// serve_point: blocks of 60, ten of each query, one in ten a variant;
// serve_scan: blocks of 100, nineteen of each query and five loads.
ClientPlan MakePlan(bool point, const ServeInputs& in, uint64_t seed,
                    int client, int64_t count) {
  Rng rng(seed * 0x100000001b3ULL + static_cast<uint64_t>(client) + 1);
  const uint32_t per_query = point ? 10 : 19;
  const uint32_t loads = point ? 0 : 5;
  std::vector<ServeOp> block;
  for (uint32_t q = 0; q < in.queries.size(); ++q) {
    for (uint32_t k = 0; k < per_query; ++k) {
      block.push_back(ServeOp{0, q, point && k == 0 ? 0 : -1});
    }
  }
  for (uint32_t k = 0; k < loads; ++k) block.push_back(ServeOp{0, kLoad, -1});
  ClientPlan plan;
  plan.ops.reserve(static_cast<size_t>(count));
  while (static_cast<int64_t>(plan.ops.size()) < count) {
    for (size_t i = block.size() - 1; i > 0; --i) {
      std::swap(block[i], block[rng.Below(i + 1)]);
    }
    for (ServeOp op : block) {
      if (static_cast<int64_t>(plan.ops.size()) == count) break;
      op.doc = static_cast<uint32_t>(
          rng.Below(op.query == kLoad ? in.scratch.size() : in.docs.size()));
      if (op.variant >= 0) {
        op.variant = static_cast<int32_t>(plan.variants.size());
        plan.variants.push_back(RenameVariables(
            in.queries[op.query].templ,
            (static_cast<uint64_t>(client) << 40) | plan.ops.size()));
      }
      plan.ops.push_back(op);
    }
  }
  return plan;
}

std::string OpType(const ServeInputs& in, const ServeOp& op) {
  if (op.query == kLoad) return "load";
  return in.queries[op.query].name + (op.variant >= 0 ? ":variant" : "");
}

// ---- One served op, checked against the ground truth. ----

std::atomic<int> g_reported_mismatches{0};

bool Mismatch(const ServeInputs& in, const ServeOp& op,
              const std::string& why) {
  if (g_reported_mismatches.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: wrong answer for %s on doc %u: %s\n",
                 OpType(in, op).c_str(), op.doc, why.c_str());
  }
  return false;
}

bool RunServedOp(rtp::serve::Client& client, const ServeInputs& in,
                 const ClientPlan& plan, const ServeOp& op, uint64_t* digest) {
  if (op.query == kLoad) {
    rtp::serve::Request req;
    req.op = "load";
    req.tenant = kTenant;
    req.doc = "scratch";
    req.text = in.scratch[op.doc].xml;
    auto response = client.Call(std::move(req));
    if (!response.ok()) return Mismatch(in, op, response.status().ToString());
    int64_t nodes = response->FindInt("nodes", -1);
    if (digest != nullptr) *digest = Fnv(*digest, nodes);
    return nodes == in.scratch[op.doc].nodes ||
           Mismatch(in, op, "node count " + std::to_string(nodes));
  }
  const Query& q = in.queries[op.query];
  const std::string& text =
      op.variant >= 0 ? plan.variants[op.variant] : q.text;
  const Doc& doc = in.docs[op.doc];
  const Answer& want = doc.expect[op.query];
  if (q.eval) {
    auto result = client.Eval(kTenant, doc.name, text);
    if (!result.ok()) return Mismatch(in, op, result.status().ToString());
    if (digest != nullptr) {
      for (const auto& row : result->tuples) {
        for (const std::string& s : row) *digest = Fnv(*digest, s);
      }
    }
    return result->tuples == want.tuples ||
           Mismatch(in, op, std::to_string(result->tuples.size()) + " tuples");
  }
  auto result = client.CheckFd(kTenant, doc.name, text);
  if (!result.ok()) return Mismatch(in, op, result.status().ToString());
  if (digest != nullptr) {
    *digest = Fnv(Fnv(Fnv(*digest, int64_t{result->satisfied}),
                      result->mappings),
                  result->groups);
  }
  bool ok = result->satisfied == want.satisfied &&
            (!want.satisfied || (result->mappings == want.mappings &&
                                 result->groups == want.groups));
  return ok || Mismatch(in, op, result->satisfied ? "satisfied" : "violated");
}

// ---- The daemon process. ----

void SleepNs(int64_t ns) {
  timespec ts{static_cast<time_t>(ns / 1'000'000'000),
              static_cast<long>(ns % 1'000'000'000)};
  nanosleep(&ts, nullptr);
}

// Owns one rtpd child: the destructor kills and reaps it if Stop() did
// not, so no daemon outlives the run. The daemon's own output goes to
// `log`, so the benchmark's stdout and stderr stay readable.
class Daemon {
 public:
  Daemon(const std::string& binary, std::string socket,
         const std::string& log)
      : socket_(std::move(socket)) {
    std::string socket_flag = "--socket=" + socket_;
    pid_ = fork();
    if (pid_ == 0) {
      int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, STDOUT_FILENO);
        dup2(fd, STDERR_FILENO);
      }
      execl(binary.c_str(), binary.c_str(), socket_flag.c_str(), "--jobs=2",
            "--max-line-bytes=67108864", "--log-level=warn",
            static_cast<char*>(nullptr));
      _exit(127);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  // Connects, retrying every 250 us while the daemon starts.
  rtp::StatusOr<rtp::serve::Client> Connect(int64_t timeout_ns) {
    rtp::serve::ClientOptions options;
    options.call_timeout_ms = 120000;
    int64_t give_up = NowNs() + timeout_ns;
    while (true) {
      if (pid_ <= 0) return rtp::UnavailableError("rtpd is not running");
      auto client = rtp::serve::Client::Connect(socket_, options);
      if (client.ok() || NowNs() > give_up) return client;
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return rtp::UnavailableError("rtpd exited");
      }
      SleepNs(250'000);
    }
  }

  // Asks the daemon to shut down and reaps it.
  void Stop() {
    if (pid_ <= 0) return;
    auto client = Connect(1'000'000'000);
    if (client.ok()) (void)client->Shutdown();
    for (int i = 0; i < 5000; ++i) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      SleepNs(1'000'000);
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

// User plus system CPU of a process, from /proc/PID/stat.
double ProcessCpuUs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  // After "pid (comm) ", the fields start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) * 1e6 / sysconf(_SC_CLK_TCK);
}

// The daemon's obs registry (stats with metrics), on a fresh connection so
// no admin connection idles long enough to be reaped.
JsonValue ServerMetrics(Daemon& daemon) {
  auto client = daemon.Connect(1'000'000'000);
  if (!client.ok()) return JsonValue::Object();
  rtp::serve::Request req;
  req.op = "stats";
  req.metrics = true;
  auto response = client->Call(std::move(req));
  if (!response.ok() || response->Find("metrics") == nullptr) {
    return JsonValue::Object();
  }
  return *response->Find("metrics");
}

double CounterDelta(const JsonValue& before, const JsonValue& after,
                    const std::string& name) {
  auto value = [&name](const JsonValue& m) -> double {
    const JsonValue* counters = m.Find("counters");
    const JsonValue* c = counters != nullptr ? counters->Find(name) : nullptr;
    return c != nullptr ? c->number_value() : 0;
  };
  return value(after) - value(before);
}

double HistogramDelta(const JsonValue& before, const JsonValue& after,
                      const std::string& name, const std::string& field) {
  auto value = [&](const JsonValue& m) -> double {
    const JsonValue* hs = m.Find("histograms");
    const JsonValue* h = hs != nullptr ? hs->Find(name) : nullptr;
    const JsonValue* f = h != nullptr ? h->Find(field) : nullptr;
    return f != nullptr ? f->number_value() : 0;
  };
  return value(after) - value(before);
}

// One cold start: spawn rtpd, connect, load the corpus. Returns the
// daemon, or null (after printing why) when any step fails.
std::unique_ptr<Daemon> ColdStart(const Options& o, const ServeInputs& in,
                                  int rep, double* seconds) {
  std::string socket = o.work + "/rtpd-" + std::to_string(getpid()) + "-" +
                       std::to_string(rep) + ".sock";
  int64_t start = NowNs();
  auto daemon =
      std::make_unique<Daemon>(o.rtpd, socket, o.work + "/rtpd.log");
  auto admin = daemon->Connect(20'000'000'000);
  if (!admin.ok()) {
    std::fprintf(stderr, "perfbench: rtpd did not start: %s\n",
                 admin.status().ToString().c_str());
    return nullptr;
  }
  std::vector<const Doc*> corpus;
  for (const Doc& d : in.docs) corpus.push_back(&d);
  if (!in.scratch.empty()) corpus.push_back(&in.scratch[0]);
  for (const Doc* d : corpus) {
    rtp::serve::Request req;
    req.op = "load";
    req.tenant = kTenant;
    req.doc = d->name;
    req.text = d->xml;
    auto response = admin->Call(std::move(req));
    if (!response.ok() || response->FindInt("nodes") != d->nodes) {
      std::fprintf(stderr, "perfbench: loading %s failed: %s\n",
                   d->name.c_str(),
                   response.ok() ? "wrong node count"
                                 : response.status().ToString().c_str());
      return nullptr;
    }
  }
  *seconds = (NowNs() - start) / 1e9;
  return daemon;
}

// ---- The closed-loop clients. ----

struct ClientState {
  int index = 0;
  const ClientPlan* plan = nullptr;
  rtp::serve::Client* client = nullptr;
  size_t next = 0;  // position in plan->ops
  std::vector<int64_t> latency, end_ns;  // per op, in op order
  // [0] untraced, [1] traced ops (a trace run alternates blocks).
  int64_t attempted[2] = {0, 0};
  int64_t failed[2] = {0, 0};
  int64_t warmup_failed = 0;  // warmup answers are checked too
  int64_t last_end_ns = 0;
  uint64_t digest = kFnvBasis;
  std::map<std::string, int64_t> op_counts;
  Tracer tracer;
};

struct Window {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  int64_t start_ns = 0;
  int64_t deadline_ns = 0;
};

void RunClient(const Options& o, const ServeInputs& in, int warmup,
               Window* window, ClientState* st) {
  for (int i = 0; i < warmup; ++i) {
    if (!RunServedOp(*st->client, in, *st->plan,
                     st->plan->ops[st->next++ % st->plan->ops.size()],
                     nullptr)) {
      ++st->warmup_failed;
    }
  }
  window->ready.fetch_add(1);
  while (!window->go.load(std::memory_order_acquire)) std::this_thread::yield();
  bool fixed = o.fixed_ops > 0;
  for (int64_t done = 0;; ++done) {
    int64_t start = NowNs();
    if (fixed ? done >= o.fixed_ops : start >= window->deadline_ns) break;
    int mode = o.trace && InTracedBlock(window->start_ns, start) ? 1 : 0;
    const ServeOp& op = st->plan->ops[st->next++ % st->plan->ops.size()];
    bool ok;
    {
      ScopedSpan span(mode == 1 ? &st->tracer : nullptr, "serve.call",
                      static_cast<int64_t>(st->index) << 40 | done);
      ok = RunServedOp(*st->client, in, *st->plan, op,
                       fixed ? &st->digest : nullptr);
    }
    int64_t end = NowNs();
    st->latency.push_back(end - start);
    st->end_ns.push_back(end);
    ++st->attempted[mode];
    if (!ok) ++st->failed[mode];
    if (fixed) {
      ++st->op_counts[OpType(in, op) + "@" + std::to_string(op.doc)];
    }
    st->last_end_ns = end;
  }
}

// ---- In-process replay of the request sequence (traced run). ----

struct Replay {
  std::map<std::string, LayerStats> layers;
  int64_t ops = 0;
  int64_t failed = 0;
  int64_t op_ns = 0;        // summed replay.op durations
  int64_t respond_ns = 0;   // summed final Serialize durations
  int64_t response_bytes = 0;
  int64_t mappings = 0;
  std::vector<Span> spans;
};

// Sorts and renders tuples exactly as the server does (document order,
// subtree serialisation).
JsonValue RenderTuples(const rtp::xml::Document& doc,
                       std::vector<std::vector<rtp::xml::NodeId>> tuples) {
  std::sort(tuples.begin(), tuples.end(),
            [&doc](const auto& a, const auto& b) {
              for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                uint32_t pa = doc.PreorderIndex(a[i]);
                uint32_t pb = doc.PreorderIndex(b[i]);
                if (pa != pb) return pa < pb;
              }
              return a.size() < b.size();
            });
  JsonValue rows = JsonValue::Array();
  for (const auto& tuple : tuples) {
    JsonValue row = JsonValue::Array();
    for (rtp::xml::NodeId n : tuple) {
      row.Push(JsonValue::String(
          rtp::xml::WriteXmlSubtree(doc, n, /*indent=*/false)));
    }
    rows.Push(std::move(row));
  }
  return rows;
}

bool SameTuples(const JsonValue& rows, const Answer& want) {
  if (rows.array_items().size() != want.tuples.size()) return false;
  for (size_t i = 0; i < want.tuples.size(); ++i) {
    const auto& row = rows.array_items()[i].array_items();
    if (row.size() != want.tuples[i].size()) return false;
    for (size_t j = 0; j < row.size(); ++j) {
      if (row[j].string_value() != want.tuples[i][j]) return false;
    }
  }
  return true;
}

// Replays served requests in process, on one thread, against its own
// copy of the corpus: each call into a layer's public function runs under
// a span of its own.
class Replayer {
 public:
  explicit Replayer(const ServeInputs& in) : in_(in) {
    for (const Doc& d : in.docs) docs_.push_back(Load(d.xml, -1));
  }

  // Replays one op as request `id`; a wrong answer counts as failed.
  void Run(int64_t id, const ServeOp& op, const std::string& text) {
    rtp::serve::Request req;
    req.id = id;
    req.tenant = kTenant;
    req.op = op.query == kLoad ? "load"
             : in_.queries[op.query].eval ? "eval"
                                          : "checkfd";
    req.doc = op.query == kLoad ? "scratch" : in_.docs[op.doc].name;
    req.text = text;
    const std::string line = rtp::serve::EncodeRequest(req).Serialize();
    bool ok = true;
    JsonValue response;
    int64_t op_start = NowNs();
    {
      ScopedSpan op_span(&tracer_, "replay.op", id);
      {
        ScopedSpan span(&tracer_, "serve.decode", id);
        auto json = JsonValue::Parse(line);
        ok = json.ok() && rtp::serve::DecodeRequest(*json).ok();
      }
      if (op.query == kLoad) {
        scratch_ = Load(req.text, id);
        int64_t nodes =
            scratch_.doc != nullptr
                ? static_cast<int64_t>(scratch_.doc->LiveNodeCount())
                : -1;
        ok = ok && nodes == in_.scratch[op.doc].nodes;
        response = rtp::serve::MakeOkResponse(req.id);
        response.Add("doc", JsonValue::String(req.doc));
        response.Add("nodes", JsonValue::Int(nodes));
      } else {
        ok = Query(req, docs_[op.doc], in_.docs[op.doc].expect[op.query],
                   &response) &&
             ok;
      }
      int64_t respond_start = NowNs();
      {
        ScopedSpan span(&tracer_, "serve.respond", id);
        out_.response_bytes +=
            static_cast<int64_t>(response.Serialize().size()) + 1;
      }
      out_.respond_ns += NowNs() - respond_start;
    }
    out_.op_ns += NowNs() - op_start;
    ++out_.ops;
    if (!ok) ++out_.failed;
  }

  Replay Finish() {
    Aggregate(tracer_.spans(), &out_.layers);
    out_.spans = tracer_.spans();
    return std::move(out_);
  }

 private:
  struct Loaded {
    std::unique_ptr<rtp::xml::Document> doc;
    std::shared_ptr<const rtp::xml::DocIndex> index;
  };

  // The server's load: parse, then warm the preorder index and snapshot.
  Loaded Load(const std::string& xml, int64_t id) {
    Loaded l;
    {
      ScopedSpan span(&tracer_, "xml.parse", id);
      auto parsed = rtp::xml::ParseXml(&alphabet_, xml);
      if (!parsed.ok()) return l;
      l.doc = std::make_unique<rtp::xml::Document>(std::move(parsed).value());
    }
    ScopedSpan span(&tracer_, "xml.index", id);
    l.doc->PreorderIndex(l.doc->root());
    l.index = l.doc->Snapshot();
    return l;
  }

  // An eval or checkfd as the server runs it; false on a wrong answer.
  bool Query(const rtp::serve::Request& req, const Loaded& target,
             const Answer& want, JsonValue* response) {
    const int64_t id = req.id;
    rtp::obs::QueryProfile profile;
    std::optional<rtp::pattern::ParsedPattern> pattern;
    std::optional<rtp::fd::FunctionalDependency> fd;
    {
      ScopedSpan span(&tracer_, "pattern.parse", id);
      auto parsed = rtp::pattern::ParsePattern(&alphabet_, req.text);
      if (parsed.ok() && req.op == "eval") {
        pattern.emplace(std::move(parsed).value());
      } else if (parsed.ok()) {
        auto fd_or = rtp::fd::FunctionalDependency::FromParsed(
            std::move(parsed).value());
        if (fd_or.ok()) fd.emplace(std::move(fd_or).value());
      }
    }
    *response = rtp::serve::MakeOkResponse(id);
    bool ok = false;
    if (pattern.has_value()) {
      std::vector<std::vector<rtp::xml::NodeId>> tuples;
      {
        ScopedSpan span(&tracer_, "pattern.eval", id);
        int64_t base = NowNs();
        tuples = rtp::pattern::EvaluateSelected(pattern->pattern,
                                                *target.index, &profile);
        tracer_.AddPhases(profile, span.index(), base);
      }
      {
        ScopedSpan span(&tracer_, "xml.serialize", id);
        response->Add("count",
                      JsonValue::Int(static_cast<int64_t>(tuples.size())));
        response->Add("tuples", RenderTuples(*target.doc, std::move(tuples)));
      }
      ok = SameTuples(*response->Find("tuples"), want);
    } else if (fd.has_value()) {
      rtp::fd::CheckResult result;
      {
        ScopedSpan span(&tracer_, "fd.check", id);
        int64_t base = NowNs();
        rtp::fd::CheckOptions options;
        options.profile = &profile;
        result = rtp::fd::CheckFd(*fd, *target.index, options);
        tracer_.AddPhases(profile, span.index(), base);
      }
      {
        ScopedSpan span(&tracer_, "xml.serialize", id);
        response->Add("satisfied", JsonValue::Bool(result.satisfied));
        response->Add("mappings", JsonValue::Int(static_cast<int64_t>(
                                      result.num_mappings)));
        response->Add("groups", JsonValue::Int(static_cast<int64_t>(
                                    result.num_groups)));
        if (!result.satisfied) {
          response->Add("violation",
                        JsonValue::String(
                            result.violation->Describe(*target.doc, *fd)));
        }
      }
      ok = result.satisfied == want.satisfied &&
           (!want.satisfied ||
            (static_cast<int64_t>(result.num_mappings) == want.mappings &&
             static_cast<int64_t>(result.num_groups) == want.groups));
    }
    out_.mappings += static_cast<int64_t>(
        profile.CounterDelta("pattern.eval.mappings_visited"));
    return ok;
  }

  const ServeInputs& in_;
  rtp::Alphabet alphabet_;  // the tenant alphabet: documents and queries
  Tracer tracer_;
  std::vector<Loaded> docs_;
  Loaded scratch_;
  Replay out_;
};

// Replays the served order (both clients' sequences, interleaved) until
// `max_ops` ops or `budget_ns` have passed.
Replay RunReplay(const ServeInputs& in, const ClientPlan* plans, int warmup,
                 int64_t max_ops, int64_t budget_ns) {
  Replayer replayer(in);
  int64_t give_up = NowNs() + budget_ns;
  for (int64_t i = 0; i < max_ops && NowNs() < give_up; ++i) {
    const ClientPlan& plan = plans[i % kClients];
    const ServeOp& op = plan.ops[(warmup + i / kClients) % plan.ops.size()];
    const std::string& text =
        op.query == kLoad    ? in.scratch[op.doc].xml
        : op.variant >= 0    ? plan.variants[op.variant]
                             : in.queries[op.query].text;
    replayer.Run(i + 1, op, text);
  }
  return replayer.Finish();
}

}  // namespace

int RunServeWorkload(const Options& o) {
  const bool point = o.workload == "serve_point";
  const ServeInputs in = LoadServeInputs(ReadInputs(o));
  const bool fixed = o.fixed_ops > 0;
  const int warmup = fixed ? 0 : (point ? 200 : 4);
  // Enough ops for any window: serve_point runs ~10k ops/s, serve_scan
  // ~100; a client that runs out starts the sequence again.
  const int64_t per_client =
      fixed ? o.fixed_ops
            : warmup + static_cast<int64_t>(o.seconds * (point ? 30000 : 1000));
  ClientPlan plans[kClients];
  for (int c = 0; c < kClients; ++c) {
    plans[c] = MakePlan(point, in, o.seed, c, per_client);
  }

  // Cold starts; the last daemon serves the window.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < (fixed ? 1 : kSetupReps); ++rep) {
    if (daemon != nullptr) daemon->Stop();
    double seconds = 0;
    daemon = ColdStart(o, in, rep, &seconds);
    if (daemon == nullptr) return 1;
    setup_s.push_back(seconds);
  }

  std::vector<rtp::serve::Client> clients;
  for (int c = 0; c < kClients; ++c) {
    auto client = daemon->Connect(1'000'000'000);
    if (!client.ok()) {
      std::fprintf(stderr, "perfbench: client connect failed\n");
      return 1;
    }
    clients.push_back(std::move(client).value());
  }
  ClientState states[kClients];
  Window window;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    states[c].index = c;
    states[c].plan = &plans[c];
    states[c].client = &clients[c];
    threads.emplace_back(RunClient, std::cref(o), std::cref(in), warmup,
                         &window, &states[c]);
  }
  while (window.ready.load() < kClients) std::this_thread::yield();
  // The host probe of a measured run (see QuietSlices).
  std::optional<HostProbe> probe;
  if (!o.trace && !fixed) probe.emplace();
  JsonValue metrics_before =
      o.trace ? ServerMetrics(*daemon) : JsonValue::Object();
  window.start_ns = NowNs();
  window.deadline_ns =
      window.start_ns + static_cast<int64_t>(o.seconds * 1e9);
  // rtpd's CPU time, sampled once a second through the window.
  std::vector<std::pair<int64_t, double>> cpu_samples = {
      {window.start_ns, ProcessCpuUs(daemon->pid())}};
  window.go.store(true, std::memory_order_release);
  for (int64_t t = window.start_ns + 1'000'000'000;
       !fixed && t <= window.deadline_ns; t += 1'000'000'000) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t)));
    cpu_samples.emplace_back(NowNs(), ProcessCpuUs(daemon->pid()));
  }
  for (std::thread& t : threads) t.join();
  std::vector<HostSample> host;
  if (probe.has_value()) host = probe->Stop();
  int64_t window_end = window.start_ns;
  for (const ClientState& st : states) {
    window_end = std::max(window_end, st.last_end_ns);
  }
  double cpu_us = ProcessCpuUs(daemon->pid()) - cpu_samples[0].second;
  double peak_rss_mb = ProcessPeakRssMb(daemon->pid());
  JsonValue metrics_after =
      o.trace ? ServerMetrics(*daemon) : JsonValue::Object();
  clients.clear();
  daemon->Stop();
  daemon.reset();

  EndToEnd run;
  run.setup_s = setup_s;
  run.cpu_samples = cpu_samples;
  run.host = std::move(host);
  run.peak_rss_mb = peak_rss_mb;
  int64_t ops_by_mode[2] = {0, 0};
  std::map<std::string, int64_t> op_counts;
  uint64_t digest = kFnvBasis;
  for (const ClientState& st : states) {
    run.op_end_ns.insert(run.op_end_ns.end(), st.end_ns.begin(),
                         st.end_ns.end());
    run.latency_ns.insert(run.latency_ns.end(), st.latency.begin(),
                          st.latency.end());
    for (int m = 0; m < 2; ++m) {
      run.attempted += st.attempted[m];
      run.failed += st.failed[m];
      ops_by_mode[m] += st.attempted[m] - st.failed[m];
    }
    run.failed += st.warmup_failed;
    digest = Fnv(digest, static_cast<int64_t>(st.digest));
    for (const auto& [type, n] : st.op_counts) op_counts[type] += n;
  }
  const int64_t window_ops = run.attempted;
  run.attempted += static_cast<int64_t>(warmup) * kClients;
  const int64_t attempted = run.attempted, failed = run.failed;
  const int64_t completed = attempted - failed;
  const double elapsed_s = (window_end - window.start_ns) / 1e9;
  if (fixed) {
    PrintSelftest(attempted, failed, op_counts, digest);
    return failed == 0 ? 0 : 1;
  }

  Report report;
  report.Note("workload " + o.workload + ", seed " + std::to_string(o.seed) +
              ": closed loop, " + std::to_string(kClients) +
              " clients, rtpd --jobs=2, " + std::to_string(in.docs.size()) +
              " documents");
  if (!o.trace) {
    AddEndToEndMetrics(run, &report);
    report.Print(failed == 0, attempted, failed);
    return failed == 0 ? 0 : 1;
  }

  // Traced run: server counters, client spans and the in-process replay.
  Replay replay = RunReplay(in, plans, warmup, point ? 4000 : 400,
                            static_cast<int64_t>(o.seconds * 0.4e9));
  std::map<std::string, LayerStats> client_layers;
  for (const ClientState& st : states) {
    Aggregate(st.tracer.spans(), &client_layers);
  }
  double mean_latency_us = 0;
  for (int64_t ns : run.latency_ns) mean_latency_us += ns / 1e3;
  mean_latency_us /= std::max<size_t>(1, run.latency_ns.size());
  double server_count = HistogramDelta(metrics_before, metrics_after,
                                       "serve.request_ns", "count");
  double server_mean_us =
      HistogramDelta(metrics_before, metrics_after, "serve.request_ns", "sum") /
      1e3 / std::max(1.0, server_count);
  const double replay_ops = std::max<int64_t>(1, replay.ops);
  double replay_server_us =
      (replay.op_ns - replay.respond_ns) / 1e3 / replay_ops;
  auto per_op = [&](const char* counter) {
    return LayerValue{CounterDelta(metrics_before, metrics_after, counter) /
                          std::max<int64_t>(1, window_ops),
                      window_ops};
  };
  auto per_replayed_op_us = [&](std::initializer_list<const char*> names) {
    double ns = 0;
    for (const char* name : names) {
      auto it = replay.layers.find(name);
      if (it != replay.layers.end()) ns += it->second.total_ns;
    }
    return LayerValue{ns / 1e3 / replay_ops, replay.ops};
  };
  std::map<std::string, LayerValue> values = {
      {"serve.transport_us",
       {mean_latency_us - server_mean_us, static_cast<int64_t>(server_count)}},
      {"serve.overhead_us",
       {server_mean_us - replay_server_us, static_cast<int64_t>(server_count)}},
      {"serve.busy_cores", {cpu_us / 1e6 / elapsed_s, completed}},
      {"serve.decode_us", MeanSpanUs(replay.layers, "serve.decode")},
      {"serve.response_bytes",
       {replay.response_bytes / replay_ops, replay.ops}},
      {"exec.pool.tasks_per_op", per_op("exec.pool.tasks_executed")},
      {"regex.compilations_per_op", per_op("regex.compilations")},
      {"regex.dfa_states_per_op", per_op("regex.dfa.states_built")},
      {"pattern.parse_us", MeanSpanUs(replay.layers, "pattern.parse")},
      {"pattern.tables_us", MeanSpanUs(replay.layers, "pattern.build_tables")},
      {"pattern.mappings_per_op", {replay.mappings / replay_ops, replay.ops}},
      {"xml.parse_us", MeanSpanUs(replay.layers, "xml.parse")},
      {"xml.index_us", MeanSpanUs(replay.layers, "xml.index")},
      {"xml.serialize_us",
       per_replayed_op_us({"xml.serialize", "serve.respond"})},
      {"trace.overhead",
       {TracingOverhead(window.start_ns, window_end, ops_by_mode[0],
                        ops_by_mode[1], 0),
        completed}},
  };
  if (replay.layers.count("pattern.enumerate")) {
    values["pattern.enumerate_us"] =
        MeanSpanUs(replay.layers, "pattern.enumerate");
  }
  if (replay.layers.count("fd.check")) {
    values["fd.check_us"] = MeanSpanUs(replay.layers, "fd.check");
    values["fd.group_us"] = MeanSpanUs(replay.layers, "fd.group_and_compare");
  }
  report.Note("served window: " + std::to_string(completed) + " ops, mean " +
              std::to_string(mean_latency_us) + " us at the client, " +
              std::to_string(server_mean_us) +
              " us in rtpd (serve.request_ns)");
  PrintLayerTable("client spans (traced blocks of the served window)",
                  client_layers, 0);
  PrintLayerTable("in-process replay, " + std::to_string(replay.ops) +
                      " ops; share = self time / summed replay.op time",
                  replay.layers, replay.op_ns);
  std::ofstream(o.work + "/spans-" + o.workload + ".tsv", std::ios::trunc);
  for (const ClientState& st : states) {
    WriteSpans(o.work + "/spans-" + o.workload + ".tsv", st.tracer.spans());
  }
  WriteSpans(o.work + "/spans-" + o.workload + ".tsv", replay.spans);
  AddLayerMetrics(values,
                  "not on this workload's path (fd_maintenance only)",
                  &report);
  int64_t all_failed = failed + replay.failed;
  report.Print(all_failed == 0, attempted + replay.ops, all_failed);
  return all_failed == 0 ? 0 : 1;
}

}  // namespace perfbench
