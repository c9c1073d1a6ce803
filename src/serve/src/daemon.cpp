#include "orion/serve/daemon.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/inotify.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "orion/impact/flow_join.hpp"
#include "orion/netbase/shard.hpp"
#include "orion/serve/engine.hpp"
#include "orion/serve/protocol.hpp"
#include "orion/serve/store_cache.hpp"
#include "orion/store/archive.hpp"
#include "orion/store/mapped_flow.hpp"

namespace orion::serve {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("orion_serve: " + what + ": " +
                           std::strerror(errno));
}

/// One admitted query waiting for a worker, pinned to the snapshot it was
/// admitted under — the pin is what makes a concurrent generation swap
/// invisible to in-flight work.
struct Task {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  QueryRequest request;
  std::shared_ptr<const StoreSnapshot> snapshot;
};

struct Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

std::uint64_t generation_of(const Task& task) {
  return task.snapshot ? task.snapshot->generation : 0;
}

/// A task's batching identity: (kind, router, day, generation, sources),
/// with the sources already canonical. The tenant stays out, so two
/// tenants asking for the same cell share one computation. The hash is
/// taken once per task; a hit is confirmed field by field.
struct BatchKey {
  const Task* task = nullptr;
  std::uint64_t hash = 0;

  explicit BatchKey(const Task& t) : task(&t) {
    const QueryRequest& r = t.request;
    std::uint64_t h = net::mix64(
        (std::uint64_t{static_cast<std::uint8_t>(r.kind)} << 32) | r.router);
    h = net::mix64(h ^ static_cast<std::uint64_t>(r.day));
    h = net::mix64(h ^ generation_of(t));
    // One multiply per source; mix64 finishes.
    for (const net::Ipv4Address ip : r.sources) {
      h = std::rotl((h ^ ip.value()) * 0x9E3779B97F4A7C15ull, 29);
    }
    hash = net::mix64(h ^ r.sources.size());
  }

  friend bool operator==(const BatchKey& a, const BatchKey& b) {
    const QueryRequest& x = a.task->request;
    const QueryRequest& y = b.task->request;
    return a.hash == b.hash && x.kind == y.kind && x.router == y.router &&
           x.day == y.day && generation_of(*a.task) == generation_of(*b.task) &&
           x.sources == y.sources;
  }
};

struct BatchKeyHash {
  std::size_t operator()(const BatchKey& key) const {
    return static_cast<std::size_t>(key.hash);
  }
};

struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> inbuf;
  std::vector<std::uint8_t> outbuf;
  std::size_t out_off = 0;
  std::uint64_t next_assign = 0;  // seq given to the next parsed request
  std::uint64_t next_flush = 0;   // seq whose response goes out next
  std::map<std::uint64_t, std::vector<std::uint8_t>> ready;
  bool want_write = false;
};

struct TokenBucket {
  double tokens = 0;
  std::chrono::steady_clock::time_point last;
};

}  // namespace

struct Daemon::Impl {
  explicit Impl(DaemonConfig config) : config(std::move(config)) {}

  DaemonConfig config;

  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  int watch_fd = -1;  // inotify on archive_dir; -1 leaves the poll alone
  std::uint16_t bound_port = 0;
  bool running = false;

  // Archive mode watches the manifest; static mode pins one snapshot.
  std::unique_ptr<StoreCache> cache;
  std::shared_ptr<const StoreSnapshot> static_snapshot;

  std::thread loop_thread;
  std::vector<std::thread> worker_threads;
  std::atomic<bool> stopping{false};

  std::mutex task_mu;
  std::condition_variable task_cv;
  std::deque<Task> tasks;

  std::mutex done_mu;
  std::vector<Completion> done;

  mutable std::mutex stats_mu;
  ServeStats stats;

  // Loop-thread state (no locks: only the event loop touches these).
  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 3;  // 0/1/2: listen, wake, watch sentinels
  std::unordered_map<std::string, TokenBucket> buckets;

  std::shared_ptr<const StoreSnapshot> current_snapshot() const {
    return cache ? cache->current() : static_snapshot;
  }

  bool admit(const std::string& tenant) {
    if (config.admission.capacity <= 0) return true;
    const auto now = std::chrono::steady_clock::now();
    auto [it, fresh] = buckets.try_emplace(tenant);
    TokenBucket& bucket = it->second;
    if (fresh) {
      bucket.tokens = config.admission.capacity;
      bucket.last = now;
    } else if (config.admission.refill_per_sec > 0) {
      const double elapsed =
          std::chrono::duration<double>(now - bucket.last).count();
      bucket.tokens = std::min(
          config.admission.capacity,
          bucket.tokens + elapsed * config.admission.refill_per_sec);
      bucket.last = now;
    }
    if (bucket.tokens < 1.0) return false;
    bucket.tokens -= 1.0;
    return true;
  }

  void bump(std::uint64_t ServeStats::* field, std::uint64_t by = 1) {
    std::lock_guard<std::mutex> lock(stats_mu);
    stats.*field += by;
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  // ---- event loop ---------------------------------------------------

  /// Drains the archive watch; true when a manifest commit (its rename
  /// onto MANIFEST) or a queue overflow, which may hide one, is among
  /// the events. Data-file renames are not commits.
  bool manifest_committed() {
    alignas(inotify_event) char buf[4096];
    bool committed = false;
    for (;;) {
      const ssize_t n = ::read(watch_fd, buf, sizeof(buf));
      if (n <= 0) return committed;
      for (ssize_t at = 0; at < n;) {
        const auto* event = reinterpret_cast<const inotify_event*>(buf + at);
        committed = committed || (event->mask & IN_Q_OVERFLOW) ||
                    (event->len > 0 &&
                     std::strcmp(event->name, store::kManifestName) == 0);
        at += static_cast<ssize_t>(sizeof(inotify_event) + event->len);
      }
    }
  }

  void update_epoll(std::uint64_t conn_id, Conn& conn, bool want_write) {
    if (conn.want_write == want_write) return;
    conn.want_write = want_write;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = conn_id;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void close_conn(std::uint64_t conn_id) {
    auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->second.fd, nullptr);
    ::close(it->second.fd);
    conns.erase(it);
  }

  void flush_conn(std::uint64_t conn_id, Conn& conn) {
    // Promote in-order completions into the socket buffer first.
    while (true) {
      auto it = conn.ready.find(conn.next_flush);
      if (it == conn.ready.end()) break;
      append_frame(conn.outbuf, it->second);
      conn.ready.erase(it);
      ++conn.next_flush;
      bump(&ServeStats::responses);
    }
    while (conn.out_off < conn.outbuf.size()) {
      const ssize_t n = ::write(conn.fd, conn.outbuf.data() + conn.out_off,
                                conn.outbuf.size() - conn.out_off);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        update_epoll(conn_id, conn, true);
        return;
      }
      close_conn(conn_id);
      return;
    }
    conn.outbuf.clear();
    conn.out_off = 0;
    update_epoll(conn_id, conn, false);
  }

  /// Queues a loop-thread-produced response (overload / undecodable)
  /// through the same in-order path worker completions use.
  void reply_now(Conn& conn, std::uint64_t seq, const QueryResponse& resp) {
    conn.ready.emplace(seq, encode_response(resp));
  }

  void on_frame(std::uint64_t conn_id, Conn& conn,
                std::span<const std::uint8_t> payload) {
    const std::uint64_t seq = conn.next_assign++;
    bump(&ServeStats::requests);

    QueryRequest request;
    std::string error;
    if (!decode_request(payload, request, error)) {
      bump(&ServeStats::bad_requests);
      QueryResponse resp;
      resp.status = Status::BadRequest;
      resp.error = error;
      reply_now(conn, seq, resp);
      return;
    }
    if (!admit(request.tenant)) {
      bump(&ServeStats::overload_rejections);
      QueryResponse resp;
      resp.status = Status::Overloaded;
      resp.kind = request.kind;
      resp.error = "tenant over admission budget";
      reply_now(conn, seq, resp);
      return;
    }

    Task task;
    task.conn_id = conn_id;
    task.seq = seq;
    task.request = std::move(request);
    task.snapshot = current_snapshot();
    {
      std::lock_guard<std::mutex> lock(task_mu);
      tasks.push_back(std::move(task));
    }
    task_cv.notify_one();
  }

  void on_readable(std::uint64_t conn_id) {
    auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    Conn& conn = it->second;
    bool peer_closed = false;
    for (;;) {
      std::uint8_t chunk[8192];
      const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
      if (n > 0) {
        conn.inbuf.insert(conn.inbuf.end(), chunk, chunk + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      peer_closed = true;  // EOF or hard error
      break;
    }
    // Frames are parsed in place: each request decodes straight from its
    // span of inbuf, and the consumed prefix is erased once per read.
    std::size_t consumed = 0;
    for (;;) {
      std::size_t begin = 0;
      std::size_t end = 0;
      const std::span<const std::uint8_t> unread =
          std::span<const std::uint8_t>(conn.inbuf).subspan(consumed);
      const int got = try_extract_frame(unread, &begin, &end);
      if (got < 0) {  // oversized frame: protocol violation, drop the peer
        close_conn(conn_id);
        return;
      }
      if (got == 0) break;
      on_frame(conn_id, conn, unread.subspan(begin, end - begin));
      consumed += end;
    }
    if (consumed > 0) {
      conn.inbuf.erase(conn.inbuf.begin(),
                       conn.inbuf.begin() + static_cast<std::ptrdiff_t>(consumed));
    }
    flush_conn(conn_id, conn);
    if (peer_closed && conns.count(conn_id)) close_conn(conn_id);
  }

  void on_acceptable() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient accept failure
      }
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const std::uint64_t conn_id = next_conn_id++;
      Conn conn;
      conn.fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = conn_id;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      conns.emplace(conn_id, std::move(conn));
      bump(&ServeStats::accepted_connections);
    }
  }

  void drain_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(done_mu);
      batch.swap(done);
    }
    for (Completion& c : batch) {
      auto it = conns.find(c.conn_id);
      if (it == conns.end()) continue;  // client went away mid-query
      it->second.ready.emplace(c.seq, std::move(c.payload));
    }
    for (Completion& c : batch) {
      auto it = conns.find(c.conn_id);
      if (it != conns.end()) flush_conn(c.conn_id, it->second);
    }
  }

  void event_loop() {
    using clock = std::chrono::steady_clock;
    auto last_poll = clock::now();
    const bool watching = cache != nullptr;
    epoll_event events[64];
    while (!stopping.load(std::memory_order_acquire)) {
      const int timeout = watching ? std::max(1, config.refresh_ms) : -1;
      const int n = ::epoll_wait(epoll_fd, events, 64, timeout);
      if (n < 0 && errno != EINTR) break;
      bool committed = false;
      for (int i = 0; i < n; ++i) {
        const std::uint64_t id = events[i].data.u64;
        if (id == 0) {
          on_acceptable();
        } else if (id == 1) {
          std::uint64_t counter = 0;
          [[maybe_unused]] const ssize_t r =
              ::read(wake_fd, &counter, sizeof(counter));
          drain_completions();
        } else if (id == 2) {
          committed = manifest_committed() || committed;
        } else {
          if (events[i].events & (EPOLLHUP | EPOLLERR)) {
            // Still drain pending bytes first; on_readable closes on EOF.
            on_readable(id);
            continue;
          }
          if (events[i].events & EPOLLIN) on_readable(id);
          if (events[i].events & EPOLLOUT) {
            auto it = conns.find(id);
            if (it != conns.end()) flush_conn(id, it->second);
          }
        }
      }
      // One refresh, two triggers: a commit the watch saw, or the poll
      // period, which covers file systems and directory replacements the
      // watch cannot see.
      if (watching) {
        const auto now = clock::now();
        if (committed || now - last_poll >= std::chrono::milliseconds(
                                                std::max(1, config.refresh_ms))) {
          last_poll = now;
          if (cache->refresh()) bump(&ServeStats::generation_swaps);
        }
      }
    }
  }

  // ---- workers ------------------------------------------------------

  void worker() {
    for (;;) {
      std::vector<Task> batch;
      {
        std::unique_lock<std::mutex> lock(task_mu);
        task_cv.wait(lock, [&] {
          return stopping.load(std::memory_order_acquire) || !tasks.empty();
        });
        if (tasks.empty()) return;  // stopping
        // Drain everything that queued up: the batcher below collapses
        // identical co-arriving queries onto one computation.
        batch.assign(std::make_move_iterator(tasks.begin()),
                     std::make_move_iterator(tasks.end()));
        tasks.clear();
      }

      std::vector<Completion> out;
      out.reserve(batch.size());
      const auto execute = [](const Task& task) {
        const EngineBackend backend =
            task.snapshot ? task.snapshot->backend() : EngineBackend{};
        return execute_query_bytes(task.request, backend);
      };
      if (config.batching) {
        // Group by identity AND generation: the same probe against two
        // generations is two different answers. Each task's sources are
        // put in canonical form once, here; the executor's SourceSet then
        // finds them sorted and does not sort again.
        std::unordered_map<BatchKey, std::size_t, BatchKeyHash> groups;
        groups.reserve(batch.size());
        std::vector<std::size_t> group_of(batch.size());
        std::vector<std::size_t> leads;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          impact::canonicalize_sources(batch[i].request.sources);
          const auto [it, fresh] =
              groups.try_emplace(BatchKey(batch[i]), leads.size());
          if (fresh) leads.push_back(i);
          group_of[i] = it->second;
        }
        std::vector<std::vector<std::uint8_t>> payloads;
        payloads.reserve(leads.size());
        for (const std::size_t lead : leads) {
          payloads.push_back(execute(batch[lead]));
        }
        for (std::size_t i = 0; i < batch.size(); ++i) {
          out.push_back({batch[i].conn_id, batch[i].seq, payloads[group_of[i]]});
        }
        const std::uint64_t shared = batch.size() - leads.size();
        if (shared > 0) bump(&ServeStats::shared_computations, shared);
      } else {
        for (const Task& task : batch) {
          out.push_back({task.conn_id, task.seq, execute(task)});
        }
      }
      {
        std::lock_guard<std::mutex> lock(done_mu);
        for (Completion& c : out) done.push_back(std::move(c));
      }
      wake();
    }
  }
};

Daemon::Daemon(DaemonConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  Impl& d = *impl_;
  if (d.running) return;
  if (!d.config.archive_dir.empty() && !d.config.fde1_path.empty()) {
    throw std::runtime_error(
        "orion_serve: archive_dir and fde1_path are exclusive");
  }

  // Store first: a bad path should fail before we grab a port.
  if (!d.config.fde1_path.empty()) {
    auto snapshot = std::make_shared<StoreSnapshot>();
    snapshot->generation = 0;
    snapshot->flows.emplace(d.config.fde1_path);
    snapshot->analyzer.emplace(&*snapshot->flows);
    snapshot->analyzer->prebuild_indexes();
    d.static_snapshot = std::move(snapshot);
  } else if (!d.config.archive_dir.empty()) {
    d.cache = std::make_unique<StoreCache>(d.config.archive_dir,
                                           d.config.flows_artifact,
                                           d.config.events_artifact);
    // An empty archive is fine at startup — the poll loop picks up the
    // first published generation; until then queries answer BadRequest.
    d.cache->refresh();
  }

  d.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (d.listen_fd < 0) fail_errno("socket");
  const int one = 1;
  ::setsockopt(d.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(d.config.port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::bind(d.listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    fail_errno("bind 127.0.0.1:" + std::to_string(d.config.port));
  }
  if (::listen(d.listen_fd, 64) != 0) fail_errno("listen");
  socklen_t len = sizeof(addr);
  ::getsockname(d.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  d.bound_port = ntohs(addr.sin_port);
  set_nonblocking(d.listen_fd);

  d.epoll_fd = ::epoll_create1(0);
  if (d.epoll_fd < 0) fail_errno("epoll_create1");
  d.wake_fd = ::eventfd(0, EFD_NONBLOCK);
  if (d.wake_fd < 0) fail_errno("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // listen socket sentinel
  ::epoll_ctl(d.epoll_fd, EPOLL_CTL_ADD, d.listen_fd, &ev);
  ev.data.u64 = 1;  // wake eventfd sentinel
  ::epoll_ctl(d.epoll_fd, EPOLL_CTL_ADD, d.wake_fd, &ev);
  if (d.cache) {
    // Adopt a generation at its manifest rename instead of at the next
    // poll. Without a watch (no inotify, e.g. NFS) the poll alone runs.
    d.watch_fd = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    ev.data.u64 = 2;  // archive watch sentinel
    if (d.watch_fd >= 0 &&
        (::inotify_add_watch(d.watch_fd, d.config.archive_dir.c_str(),
                             IN_MOVED_TO) < 0 ||
         ::epoll_ctl(d.epoll_fd, EPOLL_CTL_ADD, d.watch_fd, &ev) != 0)) {
      ::close(d.watch_fd);
      d.watch_fd = -1;
    }
  }

  d.stopping.store(false, std::memory_order_release);
  const std::size_t workers = std::max<std::size_t>(1, d.config.workers);
  d.worker_threads.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    d.worker_threads.emplace_back([&d] { d.worker(); });
  }
  d.loop_thread = std::thread([&d] { d.event_loop(); });
  d.running = true;
}

void Daemon::stop() {
  Impl& d = *impl_;
  if (!d.running) return;
  {
    // Under task_mu: a worker between its predicate check and its wait
    // would otherwise miss the notify below and never exit.
    std::lock_guard<std::mutex> lock(d.task_mu);
    d.stopping.store(true, std::memory_order_release);
  }
  d.task_cv.notify_all();
  d.wake();
  for (std::thread& t : d.worker_threads) t.join();
  d.worker_threads.clear();
  d.loop_thread.join();
  for (auto& [id, conn] : d.conns) ::close(conn.fd);
  d.conns.clear();
  ::close(d.epoll_fd);
  ::close(d.wake_fd);
  ::close(d.listen_fd);
  if (d.watch_fd >= 0) ::close(d.watch_fd);
  d.epoll_fd = d.wake_fd = d.listen_fd = d.watch_fd = -1;
  d.running = false;
}

std::uint16_t Daemon::port() const { return impl_->bound_port; }

std::uint64_t Daemon::generation() const {
  const auto snapshot = impl_->current_snapshot();
  return snapshot ? snapshot->generation : 0;
}

ServeStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mu);
  return impl_->stats;
}

}  // namespace orion::serve
