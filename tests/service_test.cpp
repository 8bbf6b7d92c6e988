/// End-to-end tests for the solver service (src/service/): cold-miss /
/// warm-hit responses byte-identical, single-flight coalescing observed
/// through the counters, admission-control shedding with explicit
/// reasons, graceful drain with in-flight work completing, the wire
/// session pump (solve / stats / ping / quit / malformed frames on one
/// stream), and the AF_UNIX socket front-end. Runs under TSan as part of
/// the concurrency gate (the `Service` name filter in CI).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/solver.hpp"
#include "service/protocol.hpp"
#include "service/result_cache.hpp"
#include "service/serve.hpp"
#include "service/service.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "trace/trace_io.hpp"

namespace dts {
namespace {

ServiceRequest basic_request(const Instance& inst, std::string id = "r") {
  ServiceRequest request;
  request.id = std::move(id);
  request.instance = inst;
  request.capacity = 1.5 * inst.min_capacity();
  return request;
}

void expect_identical_payload(const ServiceResponse& a,
                              const ServiceResponse& b) {
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.makespan, b.makespan);  // bitwise: no tolerance
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.order, b.order);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].comm_start, b.schedule[i].comm_start);
    EXPECT_EQ(a.schedule[i].comp_start, b.schedule[i].comp_start);
  }
}

TEST(Service, ColdMissThenWarmHitAreByteIdentical) {
  ServiceOptions options;
  options.workers = 2;
  SolverService service(options);

  Rng rng(81);
  const Instance inst = testing::random_instance(rng, 12);
  const ServiceRequest request = basic_request(inst);

  const ServiceResponse cold = service.handle(request);
  ASSERT_EQ(cold.status, WireResponse::Status::kOk) << cold.error;
  EXPECT_EQ(cold.cache, WireResponse::CacheOutcome::kMiss);
  EXPECT_FALSE(cold.winner.empty());
  EXPECT_EQ(cold.order.size(), inst.size());
  EXPECT_EQ(cold.schedule.size(), inst.size());

  const ServiceResponse warm = service.handle(request);
  ASSERT_EQ(warm.status, WireResponse::Status::kOk) << warm.error;
  EXPECT_EQ(warm.cache, WireResponse::CacheOutcome::kHit);
  expect_identical_payload(cold, warm);

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.received, 2u);
  EXPECT_EQ(c.ok, 2u);
  EXPECT_EQ(c.ok_miss, 1u);
  EXPECT_EQ(c.ok_hit, 1u);
  EXPECT_EQ(c.cache.hits, 1u);
  EXPECT_EQ(c.cache.misses, 1u);
  EXPECT_EQ(c.cache.inserts, 1u);
  EXPECT_EQ(c.cache_size, 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedPastTheByteBound) {
  ResultCache cache(4096);
  const std::size_t slots = ResultCache::kMaxBytes / sizeof(TaskId) / 3;
  const auto entry = [](std::size_t n) {
    CachedResult r;
    r.canonical_order.assign(n, 0);
    return r;
  };
  const auto key = [](std::uint64_t digest) {
    CacheKey k;
    k.request_digest = digest;
    return k;
  };
  for (std::uint64_t d = 1; d <= 3; ++d) cache.insert(key(d), entry(slots));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.lookup(key(1)).has_value());  // 2 is now the LRU entry
  cache.insert(key(4), entry(slots));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_FALSE(cache.lookup(key(2)).has_value());
  EXPECT_TRUE(cache.lookup(key(1)).has_value());
  // Refreshing an entry with a larger order re-counts its bytes.
  cache.insert(key(1), entry(2 * slots));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(key(3)).has_value());
  // An entry larger than the whole bound is still cached, alone.
  cache.insert(key(5), entry(ResultCache::kMaxBytes / sizeof(TaskId) + 1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.lookup(key(5)).has_value());
}

TEST(Service, NoCacheBypassesCacheEntirely) {
  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);

  Rng rng(82);
  ServiceRequest request = basic_request(testing::random_instance(rng, 10));
  request.no_cache = true;

  const ServiceResponse first = service.handle(request);
  const ServiceResponse second = service.handle(request);
  ASSERT_EQ(first.status, WireResponse::Status::kOk) << first.error;
  ASSERT_EQ(second.status, WireResponse::Status::kOk) << second.error;
  EXPECT_EQ(first.cache, WireResponse::CacheOutcome::kBypass);
  EXPECT_EQ(second.cache, WireResponse::CacheOutcome::kBypass);
  expect_identical_payload(first, second);  // same seed, same solve

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.ok_bypass, 2u);
  EXPECT_EQ(c.cache.hits + c.cache.misses + c.cache.coalesced, 0u);
  EXPECT_EQ(c.cache_size, 0u);
}

TEST(Service, BadRequestsYieldErrorResponsesNotThrows) {
  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);

  Rng rng(83);
  const Instance inst = testing::random_instance(rng, 6);

  ServiceRequest no_capacity;
  no_capacity.instance = inst;
  EXPECT_EQ(service.handle(no_capacity).status, WireResponse::Status::kError);

  ServiceRequest both = basic_request(inst);
  both.capacity_factor = 1.5;
  EXPECT_EQ(service.handle(both).status, WireResponse::Status::kError);

  ServiceRequest bad_machine = basic_request(inst);
  bad_machine.machine = "no-such-machine";
  EXPECT_EQ(service.handle(bad_machine).status, WireResponse::Status::kError);

  ServiceRequest bad_solver = basic_request(inst);
  bad_solver.solver = "no-such-solver";
  EXPECT_EQ(service.handle(bad_solver).status, WireResponse::Status::kError);

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.received, 4u);
  EXPECT_EQ(c.errors, 4u);
  EXPECT_EQ(c.ok + c.shed + c.draining, 0u);
}

TEST(Service, SingleFlightCoalescesDuplicateInFlightRequests) {
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> solve_starts{0};

  ServiceOptions options;
  options.workers = 2;
  options.on_solve_start = [&] {
    solve_starts.fetch_add(1);
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  };
  SolverService service(options);

  Rng rng(84);
  const Instance inst = testing::random_instance(rng, 10);
  constexpr std::size_t kFollowers = 4;

  std::vector<ServiceResponse> responses(1 + kFollowers);
  std::vector<std::thread> clients;
  clients.emplace_back(
      [&] { responses[0] = service.handle(basic_request(inst, "lead")); });
  // The leader registered its flight before the hook parked it; followers
  // arriving now must coalesce, not queue duplicate solves.
  while (solve_starts.load() == 0) std::this_thread::yield();
  for (std::size_t i = 0; i < kFollowers; ++i) {
    clients.emplace_back([&, i] {
      responses[1 + i] =
          service.handle(basic_request(inst, "f" + std::to_string(i)));
    });
  }
  while (service.counters().cache.coalesced < kFollowers) {
    std::this_thread::yield();
  }
  {
    const std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(solve_starts.load(), 1);  // exactly one solve ran
  ASSERT_EQ(responses[0].status, WireResponse::Status::kOk)
      << responses[0].error;
  EXPECT_EQ(responses[0].cache, WireResponse::CacheOutcome::kMiss);
  for (std::size_t i = 1; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].status, WireResponse::Status::kOk)
        << responses[i].error;
    EXPECT_EQ(responses[i].cache, WireResponse::CacheOutcome::kCoalesced);
    expect_identical_payload(responses[0], responses[i]);
  }

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.ok, 1u + kFollowers);
  EXPECT_EQ(c.ok_miss, 1u);
  EXPECT_EQ(c.ok_coalesced, kFollowers);
  EXPECT_EQ(c.cache.misses, 1u);
  EXPECT_EQ(c.cache.coalesced, kFollowers);
  EXPECT_EQ(c.cache.inserts, 1u);
  EXPECT_EQ(c.cache.hits + c.cache.misses + c.cache.coalesced, c.ok);
}

TEST(Service, ShedsWithAdmissionReasonWhenPipelineFull) {
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> solve_starts{0};

  ServiceOptions options;
  options.workers = 1;
  options.max_inflight = 1;
  options.on_solve_start = [&] {
    solve_starts.fetch_add(1);
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  };
  SolverService service(options);

  Rng rng(85);
  const Instance occupant = testing::random_instance(rng, 10);
  const Instance other = testing::random_instance(rng, 10);

  std::thread leader(
      [&, r = basic_request(occupant, "lead")] { (void)service.handle(r); });
  while (solve_starts.load() == 0) std::this_thread::yield();

  // The pipeline slot is taken: the next request is shed at admission,
  // before it touches cache or pool.
  const ServiceResponse shed = service.handle(basic_request(other, "late"));
  EXPECT_EQ(shed.status, WireResponse::Status::kShed);
  EXPECT_EQ(shed.shed_reason, "admission");

  {
    const std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  leader.join();

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.received, 2u);
  EXPECT_EQ(c.ok, 1u);
  EXPECT_EQ(c.shed, 1u);
}

/// Holds pool workers for the queue-full test: the "test-held" solver
/// reports that a worker is running it, then waits for the gate to open
/// before answering with the submission order. The gate is open unless a
/// test closes it, so the solver is an ordinary one to every other
/// caller (the registry's listing includes it).
struct WorkerGate {
  std::mutex m;
  std::condition_variable cv;
  bool open = true;
  std::size_t running = 0;
};

WorkerGate& worker_gate() {
  static WorkerGate gate;
  return gate;
}

class HeldSolver final : public Solver {
 public:
  [[nodiscard]] SolveResult run(const SolveRequest& request,
                                const SolveOptions&) const override {
    WorkerGate& gate = worker_gate();
    {
      std::unique_lock<std::mutex> lock(gate.m);
      ++gate.running;
      gate.cv.notify_all();
      gate.cv.wait(lock, [&] { return gate.open; });
    }
    SolveResult result;
    result.schedule = run_heuristic(HeuristicId::kOS, request.instance,
                                    request.capacity);
    result.makespan = request.instance.empty()
                          ? 0.0
                          : result.schedule.makespan(request.instance);
    result.winner = "test-held";
    return result;
  }
};

const RegisterSolver kRegisterHeldSolver{
    "test-held", "", "test-only: OS once the worker gate opens",
    SolverTraits{.batch = false, .dag = true},
    [](const SolverSpec&) { return std::make_unique<HeldSolver>(); }};

TEST(Service, ShedsWithQueueFullReasonWhenPoolSaturated) {
  // One worker and a one-slot queue. The first solve occupies the worker
  // and stays there; only then do two more leaders submit, so exactly one
  // of them queues and the other is shed with reason "queue-full" (never
  // an exception or a hang). The worker is released once that shed
  // response is back, and the queued solve then completes.
  constexpr std::size_t kClients = 3;
  WorkerGate& gate = worker_gate();
  {
    const std::lock_guard<std::mutex> lock(gate.m);
    gate.open = false;
    gate.running = 0;
  }
  std::mutex m;
  std::condition_variable cv;
  std::size_t leaders = 0;
  bool shed_seen = false;

  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.default_solver = "test-held";
  options.on_solve_start = [&] {
    {
      const std::lock_guard<std::mutex> lock(m);
      if (leaders++ == 0) return;  // the first leader goes straight on
    }
    std::unique_lock<std::mutex> lock(gate.m);
    gate.cv.wait(lock, [&] { return gate.running > 0; });
  };
  SolverService service(options);

  Rng rng(86);
  std::vector<ServiceRequest> requests;
  for (std::size_t i = 0; i < kClients; ++i) {
    requests.push_back(
        basic_request(testing::random_instance(rng, 60), std::to_string(i)));
  }

  std::vector<ServiceResponse> responses(kClients);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = service.handle(requests[i]);
      if (responses[i].status == WireResponse::Status::kShed) {
        const std::lock_guard<std::mutex> lock(m);
        shed_seen = true;
        cv.notify_all();
      }
    });
  }
  {
    // Bounded, so a service that never sheds fails here instead of hanging.
    std::unique_lock<std::mutex> lock(m);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return shed_seen; }));
  }
  {
    const std::lock_guard<std::mutex> lock(gate.m);
    gate.open = true;
  }
  gate.cv.notify_all();
  for (std::thread& t : clients) t.join();

  std::size_t ok = 0;
  std::size_t shed = 0;
  for (const ServiceResponse& r : responses) {
    if (r.status == WireResponse::Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, WireResponse::Status::kShed) << r.error;
      EXPECT_EQ(r.shed_reason, "queue-full");
      ++shed;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, 1u);
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.ok, ok);
  EXPECT_EQ(c.shed, shed);
}

TEST(Service, DrainCompletesInFlightWorkAndRefusesNewRequests) {
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> solve_starts{0};

  ServiceOptions options;
  options.workers = 1;
  options.on_solve_start = [&] {
    solve_starts.fetch_add(1);
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  };
  SolverService service(options);

  Rng rng(87);
  const Instance inflight = testing::random_instance(rng, 10);
  const Instance late = testing::random_instance(rng, 10);

  ServiceResponse leader_response;
  std::thread leader([&, r = basic_request(inflight, "inflight")] {
    leader_response = service.handle(r);
  });
  while (solve_starts.load() == 0) std::this_thread::yield();

  std::thread drainer([&] { service.drain(); });
  while (!service.draining()) std::this_thread::yield();

  // New work is refused while the drain waits on the in-flight solve.
  const ServiceResponse refused = service.handle(basic_request(late, "late"));
  EXPECT_EQ(refused.status, WireResponse::Status::kDraining);

  {
    const std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  leader.join();
  drainer.join();

  // The in-flight request completed normally through the drain.
  ASSERT_EQ(leader_response.status, WireResponse::Status::kOk)
      << leader_response.error;
  EXPECT_EQ(leader_response.cache, WireResponse::CacheOutcome::kMiss);
  EXPECT_EQ(leader_response.schedule.size(), inflight.size());

  // And the drained service keeps refusing deterministically.
  EXPECT_EQ(service.handle(basic_request(late, "post")).status,
            WireResponse::Status::kDraining);
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.ok, 1u);
  EXPECT_EQ(c.draining, 2u);
}

/// Reads the next response off a reply stream, failing the test (with an
/// empty response) on unexpected EOF.
WireResponse next_response(std::istream& in) {
  std::optional<WireResponse> response = read_response(in);
  EXPECT_TRUE(response.has_value()) << "reply stream ended early";
  return response ? *std::move(response) : WireResponse{};
}

std::string solve_frame(const std::string& id, const std::string& trace_text) {
  std::ostringstream frame;
  frame << "dts1 solve " << id << "\n"
        << "capacity-factor 1.5\n"
        << "trace " << trace_text.size() << "\n"
        << trace_text << "end\n";
  return frame.str();
}

TEST(Service, WireSessionServesColdWarmStatsErrorsAndQuit) {
  ServiceOptions options;
  options.workers = 2;
  SolverService service(options);

  Rng rng(88);
  const Instance inst = testing::random_instance(rng, 10);
  std::ostringstream trace;
  write_trace(trace, inst);

  std::ostringstream session;
  session << solve_frame("a", trace.str()) << solve_frame("a", trace.str())
          << "dts1 stats s\nend\n"
          << "this is not a frame\nend\n"
          << "dts1 ping p\nend\n"
          << "dts1 quit q\nend\n";

  std::istringstream in(session.str());
  std::ostringstream out;
  const ServeStats stats = serve_stream(service, in, out);
  EXPECT_EQ(stats.frames, 5u);
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_TRUE(stats.saw_quit);

  std::istringstream replies(out.str());
  const WireResponse cold = next_response(replies);
  ASSERT_EQ(cold.status, WireResponse::Status::kOk) << cold.error;
  EXPECT_EQ(cold.id, "a");
  EXPECT_EQ(cold.cache, WireResponse::CacheOutcome::kMiss);
  EXPECT_EQ(cold.order.size(), inst.size());
  EXPECT_EQ(cold.schedule.size(), inst.size());

  const WireResponse warm = next_response(replies);
  ASSERT_EQ(warm.status, WireResponse::Status::kOk) << warm.error;
  EXPECT_EQ(warm.cache, WireResponse::CacheOutcome::kHit);
  // Byte-identical on the wire: every payload field round-trips through
  // the same %.17g formatting, so field equality here is byte equality.
  EXPECT_EQ(warm.winner, cold.winner);
  EXPECT_EQ(warm.makespan, cold.makespan);
  EXPECT_EQ(warm.evaluations, cold.evaluations);
  EXPECT_EQ(warm.order, cold.order);
  EXPECT_EQ(warm.schedule, cold.schedule);

  const WireResponse counters = next_response(replies);
  ASSERT_EQ(counters.status, WireResponse::Status::kOk);
  ASSERT_FALSE(counters.extra.empty());
  EXPECT_EQ(counters.extra.front(), "requests 2");

  const WireResponse error = next_response(replies);
  EXPECT_EQ(error.status, WireResponse::Status::kError);
  EXPECT_EQ(error.id, "-");
  EXPECT_FALSE(error.error.empty());

  EXPECT_EQ(next_response(replies).status, WireResponse::Status::kOk);  // ping
  EXPECT_EQ(next_response(replies).status, WireResponse::Status::kOk);  // quit
}

TEST(Service, SocketServerServesConcurrentClients) {
  ServiceOptions options;
  options.workers = 2;
  SolverService service(options);

  const std::string path = ::testing::TempDir() + "dts_service_test.sock";
  std::unique_ptr<SocketServer> server;
  try {
    server = std::make_unique<SocketServer>(service, path);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "cannot bind a local socket here: " << e.what();
  }
  server->start();

  Rng rng(89);
  const Instance inst = testing::random_instance(rng, 10);
  std::ostringstream trace;
  write_trace(trace, inst);
  const std::string session =
      solve_frame("sock", trace.str()) + "dts1 quit bye\nend\n";

  auto run_client = [&]() -> std::string {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return {};
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd);
      return {};
    }
    std::size_t sent = 0;
    while (sent < session.size()) {
      const ssize_t n =
          ::write(fd, session.data() + sent, session.size() - sent);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    std::string reply;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;  // server closes after quit
      reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
  };

  constexpr std::size_t kClients = 3;
  std::vector<std::string> replies(kClients);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] { replies[i] = run_client(); });
  }
  for (std::thread& t : clients) t.join();
  server->stop();

  for (const std::string& reply : replies) {
    if (reply.empty()) GTEST_SKIP() << "socket client could not connect";
    std::istringstream in(reply);
    const WireResponse solve = next_response(in);
    ASSERT_EQ(solve.status, WireResponse::Status::kOk) << solve.error;
    EXPECT_EQ(solve.id, "sock");
    EXPECT_EQ(solve.order.size(), inst.size());
    const WireResponse quit = next_response(in);
    EXPECT_EQ(quit.status, WireResponse::Status::kOk);
    EXPECT_EQ(quit.id, "bye");
  }
  // Identical traffic from every client: one miss, the rest hits or
  // coalesced — never duplicate inserts.
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.ok, kClients);  // ping/quit frames do not count as requests
  EXPECT_EQ(c.cache.inserts, 1u);
  EXPECT_EQ(c.cache.hits + c.cache.misses + c.cache.coalesced, kClients);
}

TEST(Service, LeaderFailureReleasesFollowersAndRetiresFlight) {
  std::atomic<bool> armed{true};
  std::atomic<bool> leader_started{false};
  SolverService* service_ptr = nullptr;

  ServiceOptions options;
  options.workers = 1;
  options.on_solve_start = [&] {
    if (!armed.exchange(false)) return;
    leader_started.store(true);
    // Hold the doomed leader until a follower has parked on its flight,
    // then unwind before the solve is ever submitted.
    while (service_ptr->counters().cache.coalesced == 0) {
      std::this_thread::yield();
    }
    throw std::runtime_error("solve hook exploded");
  };
  SolverService service(options);
  service_ptr = &service;

  Rng rng(90);
  const Instance inst = testing::random_instance(rng, 10);

  ServiceResponse leader_response;
  std::thread leader(
      [&] { leader_response = service.handle(basic_request(inst, "lead")); });
  while (!leader_started.load()) std::this_thread::yield();
  ServiceResponse follower_response;
  std::thread follower([&] {
    follower_response = service.handle(basic_request(inst, "follow"));
  });
  leader.join();
  follower.join();

  // Leader and parked follower both surface the failure as an error
  // response — nobody hangs on the dead flight.
  ASSERT_EQ(leader_response.status, WireResponse::Status::kError);
  EXPECT_EQ(leader_response.error, "solve hook exploded");
  ASSERT_EQ(follower_response.status, WireResponse::Status::kError);
  EXPECT_EQ(follower_response.error, "solve hook exploded");

  // And the flight was retired: an identical request elects a fresh
  // leader and solves, instead of coalescing onto the corpse forever.
  const ServiceResponse retry = service.handle(basic_request(inst, "retry"));
  ASSERT_EQ(retry.status, WireResponse::Status::kOk) << retry.error;
  EXPECT_EQ(retry.cache, WireResponse::CacheOutcome::kMiss);

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.errors, 2u);
  EXPECT_EQ(c.ok, 1u);
  EXPECT_EQ(c.cache.misses, 2u);
  EXPECT_EQ(c.cache.coalesced, 1u);
  EXPECT_EQ(c.cache.inserts, 1u);
}

TEST(Service, FailedHitReplayReportsTheHitItCounted) {
  std::atomic<bool> fail{false};
  ServiceOptions options;
  options.workers = 1;
  options.on_cache_replay = [&] {
    if (fail.load()) throw std::runtime_error("replay exploded");
  };
  SolverService service(options);

  Rng rng(91);
  const Instance inst = testing::random_instance(rng, 10);
  const ServiceResponse cold = service.handle(basic_request(inst, "cold"));
  ASSERT_EQ(cold.status, WireResponse::Status::kOk) << cold.error;
  EXPECT_EQ(cold.cache, WireResponse::CacheOutcome::kMiss);

  fail.store(true);
  const ServiceResponse hit = service.handle(basic_request(inst, "hit"));
  ASSERT_EQ(hit.status, WireResponse::Status::kError);
  EXPECT_EQ(hit.error, "replay exploded");
  EXPECT_EQ(hit.cache, WireResponse::CacheOutcome::kHit);

  // The wire adapter carries the same outcome.
  WireRequest wire;
  wire.id = "wire";
  wire.capacity = 1.5 * inst.min_capacity();
  std::ostringstream trace;
  write_trace(trace, inst);
  wire.trace_text = trace.str();
  const WireResponse wired = service.handle_wire(wire);
  EXPECT_EQ(wired.status, WireResponse::Status::kError);
  EXPECT_EQ(wired.cache, WireResponse::CacheOutcome::kHit);

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.cache.hits, 2u);
  EXPECT_EQ(c.cache.misses, 1u);
  EXPECT_EQ(c.errors, 2u);
  EXPECT_EQ(c.ok, 1u);
}

TEST(Service, FailedCoalescedReplayReportsCoalesced) {
  std::atomic<bool> leader_started{false};
  SolverService* service_ptr = nullptr;

  ServiceOptions options;
  options.workers = 1;
  options.on_solve_start = [&] {
    leader_started.store(true);
    // Hold the leader until the follower has parked on its flight.
    while (service_ptr->counters().cache.coalesced == 0) {
      std::this_thread::yield();
    }
  };
  options.on_cache_replay = [] {
    throw std::runtime_error("replay exploded");
  };
  SolverService service(options);
  service_ptr = &service;

  Rng rng(92);
  const Instance inst = testing::random_instance(rng, 10);
  ServiceResponse leader_response;
  std::thread leader(
      [&] { leader_response = service.handle(basic_request(inst, "lead")); });
  while (!leader_started.load()) std::this_thread::yield();
  ServiceResponse follower_response;
  std::thread follower([&] {
    follower_response = service.handle(basic_request(inst, "follow"));
  });
  leader.join();
  follower.join();

  ASSERT_EQ(leader_response.status, WireResponse::Status::kOk)
      << leader_response.error;
  EXPECT_EQ(leader_response.cache, WireResponse::CacheOutcome::kMiss);
  ASSERT_EQ(follower_response.status, WireResponse::Status::kError);
  EXPECT_EQ(follower_response.error, "replay exploded");
  EXPECT_EQ(follower_response.cache, WireResponse::CacheOutcome::kCoalesced);
  EXPECT_EQ(service.counters().cache.coalesced, 1u);
}

/// Connects to `path`, writes `session`, reads to EOF. Empty on failure.
std::string socket_session(const std::string& path,
                           const std::string& session) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return {};
  }
  std::size_t sent = 0;
  while (sent < session.size()) {
    const ssize_t n = ::write(fd, session.data() + sent, session.size() - sent);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST(Service, SocketServerBoundsLiveConnectionsNotLifetimeAccepts) {
  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);

  const std::string path = ::testing::TempDir() + "dts_service_reap.sock";
  SocketServer::Options server_options;
  server_options.max_connections = 2;
  std::unique_ptr<SocketServer> server;
  try {
    server = std::make_unique<SocketServer>(service, path, server_options);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "cannot bind a local socket here: " << e.what();
  }
  server->start();

  // Far more sequential sessions than max_connections: finished
  // connections must be reaped, so the bound counts live connections —
  // a long-running server never starts shedding on cumulative accepts.
  for (int i = 0; i < 8; ++i) {
    const std::string reply =
        socket_session(path, "dts1 ping p\nend\ndts1 quit bye\nend\n");
    if (reply.empty()) GTEST_SKIP() << "socket client could not connect";
    std::istringstream in(reply);
    const WireResponse ping = next_response(in);
    ASSERT_EQ(ping.status, WireResponse::Status::kOk)
        << "session " << i << " was refused: " << ping.shed_reason;
    EXPECT_EQ(ping.id, "p");
  }
  server->stop();
}

TEST(Service, SocketServerStopUnblocksIdleConnections) {
  ServiceOptions options;
  options.workers = 1;
  SolverService service(options);

  const std::string path = ::testing::TempDir() + "dts_service_idle.sock";
  std::unique_ptr<SocketServer> server;
  try {
    server = std::make_unique<SocketServer>(service, path);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "cannot bind a local socket here: " << e.what();
  }
  server->start();

  // Park a connection: ping, read the full response, then go idle so the
  // server's pump is blocked in read() on this live client.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    GTEST_SKIP() << "socket client could not connect";
  }
  const std::string ping = "dts1 ping p\nend\n";
  ASSERT_EQ(::write(fd, ping.data(), ping.size()),
            static_cast<ssize_t>(ping.size()));
  std::string reply;
  char buf[256];
  while (reply.find("end\n") == std::string::npos) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "connection died before answering the ping";
    reply.append(buf, static_cast<std::size_t>(n));
  }

  // stop() must half-close the idle connection and return promptly
  // instead of waiting for this client to disconnect (the test would
  // time out otherwise).
  server->stop();
  EXPECT_LE(::read(fd, buf, sizeof(buf)), 0);  // server hung up
  ::close(fd);
}

}  // namespace
}  // namespace dts
