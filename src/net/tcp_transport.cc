#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.h"

namespace khz::net {

namespace {
const SteadyClock g_steady_clock;

constexpr std::uint32_t kMaxFrameLen = 64u << 20;  // sanity cap: 64 MiB

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
}  // namespace

TcpTransport::TcpTransport(TcpBus& bus, NodeId id, std::uint16_t port)
    : bus_(bus),
      id_(id),
      port_(port),
      send_queue_us_(&metrics_.histogram("tcp.send_queue_us")),
      writev_frames_(&metrics_.histogram("tcp.writev_frames")) {}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::set_handler(Handler handler) {
  std::vector<Message> backlog;
  {
    std::lock_guard lk(handler_mu_);
    handler_ = std::move(handler);
    backlog.swap(pre_handler_backlog_);
  }
  // Replay anything that arrived before the handler existed, through the
  // executor so dispatch stays single-writer.
  for (auto& m : backlog) {
    post([this, m = std::move(m)]() mutable { dispatch(std::move(m)); });
  }
}

void TcpTransport::dispatch(Message msg) {
  Handler h;
  {
    std::lock_guard lk(handler_mu_);
    if (!handler_) {
      pre_handler_backlog_.push_back(std::move(msg));
      return;
    }
    h = handler_;
  }
  h(std::move(msg));
}

const Clock& TcpTransport::clock() const { return g_steady_clock; }

void TcpTransport::start() {
  epoll_fd_ = ::epoll_create1(0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    // Still run (timers and outbound sends work); we just can't be reached.
    KHZ_ERROR("tcp: node %u failed to listen on port %u", id_, port_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  } else {
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  running_.store(true);
  exec_ = std::thread([this] { executor_loop(); });
  io_ = std::thread([this] { io_loop(); });
}

void TcpTransport::stop() {
  bool was_running = running_.exchange(false);
  if (!was_running) return;
  wake_io();
  if (io_.joinable()) io_.join();
  {
    std::lock_guard lk(io_mu_);
    for (auto& [_, p] : peers_) {
      if (p.fd >= 0) ::close(p.fd);
      p.fd = -1;
    }
    peers_.clear();
    out_by_fd_.clear();
    for (auto& [fd, _] : in_conns_) ::close(fd);
    in_conns_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    ::close(wake_fd_);
    wake_fd_ = -1;
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  {
    // Notify under the lock: the executor checks running_ under exec_mu_,
    // so a notify between its check and its wait cannot be lost.
    std::lock_guard lk(exec_mu_);
    exec_cv_.notify_all();
  }
  if (exec_.joinable()) exec_.join();
}

void TcpTransport::wake_io() {
  const std::uint64_t one = 1;
  if (wake_fd_ >= 0) {
    [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof(one));
  }
}

// ---------------------------------------------------------------------------
// I/O thread: one epoll over the listener, inbound and outbound sockets.
// ---------------------------------------------------------------------------

void TcpTransport::io_loop() {
  set_thread_log_node(id_);
  std::vector<epoll_event> events(64);
  while (running_.load()) {
    const int timeout = backoff_timeout_ms();
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::lock_guard lk(io_mu_);
    if (!running_.load()) break;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t evs = events[i].events;
      if (fd == wake_fd_) {
        std::uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
      } else if (fd == listen_fd_) {
        accept_ready();
      } else if (auto it = out_by_fd_.find(fd); it != out_by_fd_.end()) {
        peer_event(it->second, evs);
      } else if (in_conns_.count(fd) != 0) {
        inbound_ready(fd, evs);
      }
    }
    attempt_due_connects(g_steady_clock.now());
  }
}

int TcpTransport::backoff_timeout_ms() {
  std::lock_guard lk(io_mu_);
  Micros soonest = -1;
  const Micros now = g_steady_clock.now();
  for (const auto& [_, p] : peers_) {
    if (p.fd >= 0 || p.queue.empty()) continue;
    const Micros wait = p.next_attempt > now ? p.next_attempt - now : 0;
    if (soonest < 0 || wait < soonest) soonest = wait;
  }
  if (soonest < 0) return -1;  // nothing pending: block until woken
  return static_cast<int>((soonest + 999) / 1000);
}

void TcpTransport::accept_ready() {
  while (true) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                             &len, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN or listener gone
    set_nodelay(fd);
    in_conns_.emplace(fd, InConn{});
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void TcpTransport::close_inbound(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  in_conns_.erase(fd);
}

void TcpTransport::inbound_ready(int fd, std::uint32_t events) {
  auto& conn = in_conns_.at(fd);
  bool closed = (events & (EPOLLHUP | EPOLLERR)) != 0;
  std::uint8_t tmp[64 * 1024];
  while (!closed) {
    const ssize_t r = ::recv(fd, tmp, sizeof(tmp), 0);
    if (r > 0) {
      conn.buf.insert(conn.buf.end(), tmp, tmp + r);
      counters_.bytes_received += static_cast<std::uint64_t>(r);
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    closed = true;  // EOF or hard error
  }
  // Peel off complete frames: 4-byte little-endian length + body.
  std::size_t off = 0;
  while (conn.buf.size() - off >= 4) {
    const std::uint32_t frame_len = read_le32(conn.buf.data() + off);
    if (frame_len > kMaxFrameLen) {
      KHZ_WARN("tcp: node %u dropping oversized frame (%u bytes)", id_,
               frame_len);
      closed = true;
      break;
    }
    if (conn.buf.size() - off < 4u + frame_len) break;
    Message msg;
    if (Message::decode({conn.buf.data() + off + 4, frame_len}, msg)) {
      ++counters_.messages_received;
      // Hand the decoded frame to the executor: the I/O thread never runs
      // node logic itself.
      post([this, m = std::move(msg)]() mutable { dispatch(std::move(m)); });
    } else {
      KHZ_WARN("tcp: node %u dropping undecodable frame", id_);
      ++counters_.frames_dropped;
    }
    off += 4u + frame_len;
  }
  if (off > 0) {
    conn.buf.erase(conn.buf.begin(),
                   conn.buf.begin() + static_cast<std::ptrdiff_t>(off));
  }
  if (closed || (events & EPOLLRDHUP) != 0) close_inbound(fd);
}

// ---------------------------------------------------------------------------
// Outbound: per-peer non-blocking write queues + reconnect with backoff.
// ---------------------------------------------------------------------------

void TcpTransport::update_peer_events(PeerConn& p) {
  if (p.fd < 0) return;
  std::uint32_t want = EPOLLIN | EPOLLRDHUP;  // detect peer close
  if (p.connecting || !p.queue.empty()) want |= EPOLLOUT;
  if (want == p.armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = p.fd;
  const int op = p.armed == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
  ::epoll_ctl(epoll_fd_, op, p.fd, &ev);
  p.armed = want;
}

void TcpTransport::start_connect(NodeId peer) {
  auto& p = peers_[peer];
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(bus_.port_of(peer));
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    ++counters_.connect_failures;
    ++p.backoff_exp;
    const Micros delay = std::min<Micros>(
        kBackoffBase << std::min(p.backoff_exp - 1, 20), kBackoffMax);
    p.next_attempt = g_steady_clock.now() + delay;
    return;
  }
  p.fd = fd;
  p.armed = 0;
  out_by_fd_[fd] = peer;
  p.connecting = (rc != 0);
  if (p.connecting) {
    update_peer_events(p);
  } else {
    finish_connect(peer);
  }
}

void TcpTransport::finish_connect(NodeId peer) {
  auto& p = peers_[peer];
  int err = 0;
  socklen_t len = sizeof(err);
  ::getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, p.fd, nullptr);
    out_by_fd_.erase(p.fd);
    ::close(p.fd);
    p.fd = -1;
    p.armed = 0;
    p.connecting = false;
    ++counters_.connect_failures;
    ++p.backoff_exp;
    const Micros delay = std::min<Micros>(
        kBackoffBase << std::min(p.backoff_exp - 1, 20), kBackoffMax);
    p.next_attempt = g_steady_clock.now() + delay;
    return;
  }
  p.connecting = false;
  p.backoff_exp = 0;
  p.next_attempt = 0;
  set_nodelay(p.fd);
  ++counters_.connects;
  if (p.was_connected) ++counters_.reconnects;
  p.was_connected = true;
  if (!flush_queue(p)) {
    connection_lost(peer);
    return;
  }
  update_peer_events(p);
}

void TcpTransport::connection_lost(NodeId peer) {
  auto& p = peers_[peer];
  if (p.fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, p.fd, nullptr);
    out_by_fd_.erase(p.fd);
    ::close(p.fd);
  }
  p.fd = -1;
  p.armed = 0;
  p.connecting = false;
  // A partially written frame cannot be resumed on a new connection.
  if (p.front_off > 0 && !p.queue.empty()) {
    p.queue_bytes -= p.queue.front().data.size() - p.front_off;
    p.queue.pop_front();
    p.front_off = 0;
    ++counters_.frames_dropped;
  }
  // First retry is immediate; repeated failures back off exponentially.
  p.next_attempt = g_steady_clock.now();
}

bool TcpTransport::flush_queue(PeerConn& p) {
  // Scatter-gather drain: hand the kernel up to kIovBatch queued frames
  // per sendmsg() so a burst of small messages (e.g. a pipelined
  // multi-page lock) costs one syscall instead of one per frame.
  // writev() would do, but only sendmsg() takes MSG_NOSIGNAL.
  constexpr std::size_t kIovBatch = 64;
  while (!p.queue.empty()) {
    struct iovec iov[kIovBatch];
    const std::size_t n = std::min(p.queue.size(), kIovBatch);
    for (std::size_t i = 0; i < n; ++i) {
      const Bytes& frame = p.queue[i].data;
      const std::size_t off = (i == 0) ? p.front_off : 0;
      iov[i].iov_base = const_cast<std::uint8_t*>(frame.data() + off);
      iov[i].iov_len = frame.size() - off;
    }
    struct msghdr mh {};
    mh.msg_iov = iov;
    mh.msg_iovlen = n;
    ssize_t w;
    do {
      w = ::sendmsg(p.fd, &mh, MSG_NOSIGNAL);
    } while (w < 0 && errno == EINTR);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    counters_.bytes_sent += static_cast<std::uint64_t>(w);
    p.queue_bytes -= static_cast<std::size_t>(w);
    // Walk off the frames the kernel fully consumed.
    std::size_t remaining = static_cast<std::size_t>(w);
    std::uint64_t completed = 0;
    const Micros now = g_steady_clock.now();
    while (remaining > 0 && !p.queue.empty()) {
      const std::size_t left = p.queue.front().data.size() - p.front_off;
      if (remaining < left) {
        p.front_off += remaining;
        remaining = 0;
        break;
      }
      remaining -= left;
      send_queue_us_->record(now - p.queue.front().enqueued_at);
      p.queue.pop_front();
      p.front_off = 0;
      ++counters_.messages_sent;
      ++completed;
    }
    if (completed > 0) writev_frames_->record(completed);
  }
  return true;
}

void TcpTransport::peer_event(NodeId peer, std::uint32_t events) {
  auto& p = peers_[peer];
  if (p.connecting) {
    // Writability (or an error flag) resolves the pending connect().
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) finish_connect(peer);
    return;
  }
  if ((events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP | EPOLLIN)) != 0) {
    // Peers never send data on our outbound connections, so readability
    // means EOF (peer died) or an error.
    std::uint8_t probe[256];
    const ssize_t r = ::recv(p.fd, probe, sizeof(probe), 0);
    if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK) ||
        (events & (EPOLLERR | EPOLLHUP)) != 0) {
      connection_lost(peer);
      return;
    }
  }
  if ((events & EPOLLOUT) != 0) {
    if (!flush_queue(p)) {
      connection_lost(peer);
      return;
    }
    update_peer_events(p);
  }
}

void TcpTransport::attempt_due_connects(Micros now) {
  for (auto& [peer, p] : peers_) {
    if (p.fd < 0 && !p.queue.empty() && now >= p.next_attempt) {
      start_connect(peer);
    }
  }
}

void TcpTransport::send(Message msg) {
  if (!running_.load()) return;
  msg.src = id_;
  Bytes frame = msg.encode_framed();
  bool need_wake = false;
  {
    std::lock_guard lk(io_mu_);
    auto& p = peers_[msg.dst];
    if (p.queue_bytes + frame.size() > kMaxPeerQueueBytes) {
      ++counters_.frames_dropped;  // backlogged peer: shed, don't grow
      return;
    }
    const bool was_idle = p.queue.empty();
    p.queue_bytes += frame.size();
    p.queue.push_back(Frame{std::move(frame), g_steady_clock.now()});
    counters_.peak_queued_bytes =
        std::max<std::uint64_t>(counters_.peak_queued_bytes, p.queue_bytes);
    if (p.fd >= 0 && !p.connecting && was_idle) {
      // Opportunistic inline flush: skip the I/O-thread hop on the common
      // uncontended path. Leftovers drain via EPOLLOUT.
      if (!flush_queue(p)) {
        connection_lost(msg.dst);
        need_wake = true;
      } else {
        update_peer_events(p);
      }
    } else {
      // Disconnected or already backlogged: the I/O thread owns progress.
      need_wake = true;
    }
    if (need_wake) wake_io();
  }
}

// ---------------------------------------------------------------------------
// Executor: serialized callbacks + timer heap on one thread.
// ---------------------------------------------------------------------------

void TcpTransport::post(std::function<void()> fn) {
  {
    std::lock_guard lk(exec_mu_);
    work_.push_back(std::move(fn));
  }
  exec_cv_.notify_one();
}

std::uint64_t TcpTransport::schedule(Micros delay, std::function<void()> fn) {
  std::lock_guard lk(exec_mu_);
  Timer t;
  t.fire_at = g_steady_clock.now() + delay;
  const std::uint64_t id = next_timer_id_++;
  t.id = id;
  t.fn = std::move(fn);
  timers_.push_back(std::move(t));
  std::push_heap(timers_.begin(), timers_.end());
  exec_cv_.notify_one();
  // NOT timers_.back().id: push_heap may have moved another timer there.
  return id;
}

void TcpTransport::cancel(std::uint64_t timer_id) {
  std::lock_guard lk(exec_mu_);
  for (auto& t : timers_) {
    if (t.id == timer_id && t.fn) {
      t.fn = nullptr;  // fires as a no-op if not compacted first
      ++tombstones_;
    }
  }
  // Lazy compaction: once tombstones dominate, rebuild the heap without
  // them so long-running schedule/cancel loops don't leak entries.
  if (tombstones_ * 2 > timers_.size()) {
    std::erase_if(timers_, [](const Timer& t) { return !t.fn; });
    std::make_heap(timers_.begin(), timers_.end());
    tombstones_ = 0;
  }
}

std::size_t TcpTransport::pending_timers() const {
  std::lock_guard lk(exec_mu_);
  return timers_.size();
}

TransportStats TcpTransport::stats() const {
  std::lock_guard lk(io_mu_);
  TransportStats s = counters_;
  s.queued_bytes = 0;
  for (const auto& [_, p] : peers_) s.queued_bytes += p.queue_bytes;
  return s;
}

void TcpTransport::run_on_executor(std::function<void()> fn) {
  if (exec_.get_id() == std::this_thread::get_id()) {
    fn();  // already on the executor: blocking would self-deadlock
    return;
  }
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  post([&] {
    fn();
    std::lock_guard lk(done_mu);
    done = true;
    done_cv.notify_one();
  });
  std::unique_lock lk(done_mu);
  done_cv.wait(lk, [&] { return done; });
}

void TcpTransport::executor_loop() {
  // All node logic runs here; prefix log lines with the node id so the
  // interleaved output of a multi-node process stays attributable.
  set_thread_log_node(id_);
  // Inbound frames and posted jobs share work_. Serving it first whenever
  // it is non-empty would hold back every due timer (RPC timeouts, CREW's
  // zero-delay flush, self-sends, group commit, pings) for as long as a
  // stream of jobs lasts, so a due timer and a queued job take turns.
  bool timer_turn = false;
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock lk(exec_mu_);
      while (true) {
        if (!running_.load() && work_.empty()) return;
        const Micros now = timers_.empty() ? 0 : g_steady_clock.now();
        const bool timer_due =
            !timers_.empty() && timers_.front().fire_at <= now;
        if (timer_due && (timer_turn || work_.empty())) {
          std::pop_heap(timers_.begin(), timers_.end());
          job = std::move(timers_.back().fn);
          timers_.pop_back();
          if (!job) {
            if (tombstones_ > 0) --tombstones_;
            continue;  // cancelled
          }
          timer_turn = false;
          break;
        }
        if (!work_.empty()) {
          job = std::move(work_.front());
          work_.pop_front();
          timer_turn = true;
          break;
        }
        if (timers_.empty()) {
          exec_cv_.wait(lk);
        } else {
          exec_cv_.wait_for(
              lk, std::chrono::microseconds(timers_.front().fire_at - now));
        }
      }
    }
    job();
  }
}

TcpBus::~TcpBus() { stop_all(); }

TcpTransport& TcpBus::add_node(NodeId id) {
  auto ep = std::make_unique<TcpTransport>(*this, id, port_of(id));
  auto& ref = *ep;
  endpoints_[id] = std::move(ep);  // replaces (and stops) any prior endpoint
  ref.start();
  return ref;
}

void TcpBus::remove_node(NodeId id) { endpoints_.erase(id); }

void TcpBus::stop_all() {
  for (auto& [_, ep] : endpoints_) ep->stop();
  endpoints_.clear();
}

}  // namespace khz::net
