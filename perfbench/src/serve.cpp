/// \file serve.cpp
/// The serve_zipf workload: independent users in an open loop against
/// serve::Server::serve_socket in the same process.  One client thread
/// sends requests at Poisson arrival times over one AF_UNIX connection,
/// another reads the responses; each request is timed from the moment
/// it was due.  Roof popularity is Zipf(1.1) over the city; the op mix
/// is 70% rank, 24% plan, 5% grid_rank and 1% reload, and reload swaps
/// the footprint index between the original and an edited copy, so it
/// is the write among the reads.
///
/// Every response is checked: rank payloads against run_city records
/// built under the same configuration for the same index version, and
/// the whole session against a serial Server::replay of its request log.

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <optional>
#include <random>
#include <sstream>
#include <streambuf>
#include <thread>

#include "common.hpp"
#include "pvfp/grid/feeder_model.hpp"
#include "pvfp/serve/protocol.hpp"
#include "pvfp/serve/server.hpp"
#include "pvfp/util/parallel.hpp"

namespace perfbench {

namespace gis = pvfp::gis;
namespace serve = pvfp::serve;

namespace {

/// One request of the stream.
struct Request {
    std::string op;
    std::string line;
    int roof = -1;  ///< registry index (rank, plan)
};

/// The request stream.  Roof popularity is Zipf(1.1) over a fixed
/// permutation of the registry (\p popularity_seed); the op mix is 70%
/// rank, 24% plan, 5% grid_rank and 1% reload; plans ask for 6x2, 8x2
/// or 4x4, one in four portrait.  Each is dealt from a shuffled deck
/// that holds the exact proportions (roofs: 500 cards apportioned to the
/// Zipf weights), so every seed sends the same mix of roofs and ops in
/// its own order and at its own times (\p seed): the stream's content
/// does not drift from seed to seed, only its sequence.
class RequestStream {
public:
    RequestStream(const City& city, const pvfp::grid::FeederModel& feeders,
                  std::uint64_t popularity_seed, std::uint64_t seed)
        : city_(city), feeders_(feeders), rng_(seed * 0x9E3779B97F4A7C15ull + 1) {
        std::mt19937_64 order(popularity_seed);
        const int n = static_cast<int>(city.registry.size());
        for (int i = 0; i < n; ++i) popularity_.push_back(i);
        for (int i = n - 1; i > 0; --i)
            std::swap(popularity_[static_cast<std::size_t>(i)],
                      popularity_[order() % static_cast<std::uint64_t>(i + 1)]);
        // Largest-remainder apportionment of the roof deck.
        constexpr int kRoofCards = 500;
        std::vector<double> weight;
        double total = 0.0;
        for (int k = 1; k <= n; ++k) {
            weight.push_back(std::pow(static_cast<double>(k), -1.1));
            total += weight.back();
        }
        std::vector<std::pair<double, int>> remainder;
        int dealt = 0;
        for (int k = 0; k < n; ++k) {
            const double share = weight[static_cast<std::size_t>(k)] / total * kRoofCards;
            const int cards = static_cast<int>(share);
            roof_cards_.insert(roof_cards_.end(), cards, roof_at_rank(k));
            dealt += cards;
            remainder.push_back({share - cards, k});
        }
        std::stable_sort(remainder.begin(), remainder.end(),
                         [](const auto& a, const auto& b) { return a.first > b.first; });
        for (int i = 0; i < kRoofCards - dealt; ++i)
            roof_cards_.push_back(roof_at_rank(remainder[static_cast<std::size_t>(i)].second));
    }

    /// Roof of popularity rank \p k (0 = most requested).
    int roof_at_rank(int k) const { return popularity_[static_cast<std::size_t>(k)]; }

    Request rank(int roof) const {
        return {"rank", "{\"op\":\"rank\",\"id\":\"" + id(roof) + "\"}", roof};
    }

    Request next() {
        static const std::vector<int> kOps = [] {
            std::vector<int> ops(70, 0);       // rank
            ops.insert(ops.end(), 24, 1);      // plan
            ops.insert(ops.end(), 5, 2);       // grid_rank
            ops.push_back(3);                  // reload
            return ops;
        }();
        static const std::vector<int> kShapes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
        const int op = deal(ops_, kOps);
        const int roof = deal(roofs_, roof_cards_);
        if (op == 0) return rank(roof);
        if (op == 1) {
            // Shape card s: topology s % 3, portrait for s < 3.
            static const int kTopology[3][2] = {{6, 2}, {8, 2}, {4, 4}};
            const int s = deal(shapes_, kShapes);
            const int* shape = kTopology[s % 3];
            return {"plan",
                    "{\"op\":\"plan\",\"id\":\"" + id(roof) + "\",\"series\":" +
                        std::to_string(shape[0]) + ",\"strings\":" +
                        std::to_string(shape[1]) +
                        (s < 3 ? ",\"orientation\":\"portrait\"}" : "}"),
                    roof};
        }
        if (op == 2) {
            // The feeder of a popular roof: the roofs that share it come
            // along, popular or not.
            const long bus = feeders_.bus_of(id(roof));
            if (bus < 0) return rank(roof);
            const auto& feeder =
                feeders_.feeders()[static_cast<std::size_t>(
                    feeders_.buses()[static_cast<std::size_t>(bus)].feeder)];
            return {"grid_rank", "{\"op\":\"grid_rank\",\"feeder\":\"" + feeder.id + "\"}",
                    -1};
        }
        return {"reload", "{\"op\":\"reload\"}", -1};
    }

private:
    /// Top card of \p deck, refilled from \p cards and shuffled when empty.
    int deal(std::vector<int>& deck, const std::vector<int>& cards) {
        if (deck.empty()) {
            deck = cards;
            for (std::size_t i = deck.size() - 1; i > 0; --i)
                std::swap(deck[i], deck[rng_() % (i + 1)]);
        }
        const int card = deck.back();
        deck.pop_back();
        return card;
    }

    const std::string& id(int roof) const { return city_.registry.record(roof).id; }

    const City& city_;
    const pvfp::grid::FeederModel& feeders_;
    std::mt19937_64 rng_;
    std::vector<int> popularity_;
    std::vector<int> roof_cards_;
    std::vector<int> ops_;
    std::vector<int> roofs_;
    std::vector<int> shapes_;
};

/// The edited footprint index: about one record in ten (those without a
/// polygon) loses one cell on its east edge.
std::string edited_index(const std::string& csv, double cell_size,
                         std::uint64_t seed) {
    std::mt19937_64 rng(seed + 0xED17);
    std::string out;
    const std::vector<std::string> lines = split_lines(csv);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::vector<std::string> fields;
        std::stringstream ss(lines[i]);
        for (std::string f; std::getline(ss, f, ',');) fields.push_back(f);
        if (!lines[i].empty() && lines[i].back() == ',') fields.emplace_back();
        const bool edit = i > 0 && rng() % 10 == 0 && fields.size() >= 8 &&
                          fields[7].empty();
        if (edit) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.3f", std::stod(fields[3]) - cell_size);
            fields[3] = buf;
        }
        for (std::size_t f = 0; f < fields.size(); ++f)
            out += (f ? "," : "") + fields[f];
        out += '\n';
    }
    return out;
}

/// The two index versions that `reload` alternates between: the city's
/// own footprint index and the edited one.
std::vector<std::string> index_versions(const City& city, std::uint64_t seed) {
    const std::string csv = read_file(city.fixture.csv_index_path);
    return {csv, edited_index(csv, city.tiles.cell_size(), seed)};
}

/// run_city's JSONL under cfg.serve for each index version of the city
/// of \p seed, built in \p dir by a child process, so that the memory
/// of these runs does not count in this process's peak resident set,
/// which is the daemon's.  Call it before this process starts a thread:
/// the child then holds the only one.
std::vector<std::string> reference_streams(const std::string& dir, std::uint64_t seed) {
    const auto jsonl_path = [&](std::size_t v) {
        return dir + "/serve_ref_v" + std::to_string(v) + ".jsonl";
    };
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    if (pid == 0) {
        try {
            const City city = make_city(dir + "/city", seed);
            const std::vector<std::string> versions = index_versions(city, seed);
            for (std::size_t v = 0; v < versions.size(); ++v) {
                const std::string path = dir + "/index_v" + std::to_string(v) + ".csv";
                write_file(path, versions[v]);
                gis::CityRunOptions options = serve_city_options();
                options.jsonl_path = jsonl_path(v);
                (void)gis::run_city(city.tiles, gis::RoofRegistry::load(path), options);
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "pvfp_perfbench: reference streams: %s\n", e.what());
            ::_exit(1);
        }
        ::_exit(0);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("serve_zipf: building the reference streams failed");
    return {read_file(jsonl_path(0)), read_file(jsonl_path(1))};
}

/// Counts response lines as they arrive and wakes whoever waits for one.
class Progress {
public:
    void add_line() {
        std::lock_guard<std::mutex> lock(mutex_);
        ++lines_;
        cv_.notify_all();
    }
    /// Wait until more than \p seq lines arrived; false when stopped.
    bool wait_past(long seq) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || lines_ > seq; });
        return lines_ > seq;
    }
    void stop() {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
        cv_.notify_all();
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    long lines_ = 0;
    bool stop_ = false;
};

/// A streambuf that keeps what is written and counts its lines (the
/// replay's output, so the index feeder can follow it).
class LineBuf : public std::streambuf {
public:
    explicit LineBuf(Progress& progress) : progress_(progress) {}
    const std::string& text() const { return text_; }

protected:
    int overflow(int c) override {
        if (c == traits_type::eof()) return traits_type::not_eof(c);
        text_ += static_cast<char>(c);
        if (c == '\n') progress_.add_line();
        return c;
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
        for (std::streamsize i = 0; i < n; ++i) overflow(s[i]);
        return n;
    }

private:
    Progress& progress_;
    std::string text_;
};

/// Serves the index versions to the server's `reload` ops through a
/// FIFO at the index path: the k-th reload reads version k of
/// \p versions.  The next version is offered only after the previous
/// reload's response was seen, so a reload never reads another's bytes;
/// live sessions and their replay therefore read the same sequence.
class IndexFeeder {
public:
    IndexFeeder(std::string fifo, std::vector<std::string> versions,
                std::vector<long> reload_seqs, Progress& progress)
        : fifo_(std::move(fifo)),
          versions_(std::move(versions)),
          reload_seqs_(std::move(reload_seqs)),
          progress_(progress),
          thread_([this] { run(); }) {}

    ~IndexFeeder() {
        stop_ = true;
        progress_.stop();
        // A writer blocked in open() waits for a reader: be one.
        const int fd = ::open(fifo_.c_str(), O_RDONLY | O_NONBLOCK);
        thread_.join();
        if (fd >= 0) ::close(fd);
    }
    IndexFeeder(const IndexFeeder&) = delete;
    IndexFeeder& operator=(const IndexFeeder&) = delete;

private:
    void run() {
        for (std::size_t k = 0; k < reload_seqs_.size() && !stop_; ++k) {
            if (k > 0 && !progress_.wait_past(reload_seqs_[k - 1])) return;
            const int fd = ::open(fifo_.c_str(), O_WRONLY);
            if (fd < 0) return;
            if (!stop_) {
                const std::string& bytes = versions_[k % versions_.size()];
                std::size_t off = 0;
                while (off < bytes.size()) {
                    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
                    if (w <= 0) break;
                    off += static_cast<std::size_t>(w);
                }
            }
            ::close(fd);
        }
    }

    std::string fifo_;
    std::vector<std::string> versions_;
    std::vector<long> reload_seqs_;
    Progress& progress_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/// One request as the client saw it.
struct Sample {
    Request request;
    Clock::time_point due;
    Clock::time_point sent;
    Clock::time_point received;
    long outstanding = 0;  ///< sent but unanswered when this one was sent
    double service_ms = 0.0;  ///< closed-loop passes: time alone in the server
    bool miss = false;        ///< closed-loop passes: the request built a roof
    double latency_ms() const {
        return std::chrono::duration<double, std::milli>(received - due).count();
    }
};

/// The client side of one connection: a reader thread collects the
/// response lines in order.
class Client {
public:
    Client(const std::string& path, Progress& progress) : progress_(progress) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
        const Clock::time_point t0 = Clock::now();
        for (;;) {
            fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof addr) == 0)
                break;
            ::close(fd_);
            fd_ = -1;
            if (seconds_since(t0) > 30.0)
                throw std::runtime_error("cannot connect to " + path);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        reader_ = std::thread([this] { read_loop(); });
    }
    ~Client() {
        if (reader_.joinable()) {
            ::shutdown(fd_, SHUT_RDWR);
            reader_.join();
        }
        if (fd_ >= 0) ::close(fd_);
    }
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    void send(const std::string& line) {
        const std::string bytes = line + "\n";
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t w = ::send(fd_, bytes.data() + off, bytes.size() - off,
                                     MSG_NOSIGNAL);
            if (w <= 0) throw std::runtime_error("send failed");
            off += static_cast<std::size_t>(w);
        }
    }

    long received() const { return received_.load(); }
    void wait_for(long n) const {
        while (received_.load() < n && !eof_.load())
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    /// Response line \p i and when it arrived (valid once received() > i).
    std::pair<std::string, Clock::time_point> response(long i) const {
        std::lock_guard<std::mutex> lock(mutex_);
        return responses_[static_cast<std::size_t>(i)];
    }
    /// Stop after the server closes the connection.
    void join() {
        reader_.join();
    }
    std::string transcript() const {
        std::lock_guard<std::mutex> lock(mutex_);
        std::string out;
        for (const auto& r : responses_) out += r.first + '\n';
        return out;
    }

private:
    void read_loop() {
        std::string partial;
        char buf[1 << 16];
        for (;;) {
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n <= 0) break;
            const Clock::time_point now = Clock::now();
            for (ssize_t i = 0; i < n; ++i) {
                if (buf[i] != '\n') {
                    partial += buf[i];
                    continue;
                }
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    responses_.emplace_back(std::move(partial), now);
                }
                partial.clear();
                ++received_;
                progress_.add_line();
            }
        }
        eof_ = true;
        progress_.stop();
    }

    Progress& progress_;
    int fd_ = -1;
    mutable std::mutex mutex_;
    std::vector<std::pair<std::string, Clock::time_point>> responses_;
    std::atomic<long> received_{0};
    std::atomic<bool> eof_{false};
    std::thread reader_;
};

/// The latency limit applies to p98: a step of kStepRequests has ten
/// samples beyond it.
constexpr double kTailQ = 0.98;
/// Requests in the peak step and in each step of the ladder.
constexpr int kStepRequests = 500;
/// The traced run's nominal step fills this share of --seconds.
constexpr double kNominalShare = 0.9;
/// The server's memory budget: room for every prepared roof of the
/// city, so misses come from first touches and reloads, not churn.
constexpr double kBudgetMb = 1024.0;
/// Length of the untraced closed-loop stream, per worker and second of
/// the run.  No request of the mix is served in under a millisecond, so
/// the stream outlasts the run; if it ran out, the rate would still be
/// requests over the time they took.
constexpr int kStreamPerWorkerSecond = 1000;

/// The workload's rates and latency limit (perfbench/config.json).
struct ServeSettings {
    struct Step {
        double rate = 0.0;  ///< offered load [req/s]
        int requests = 0;
    };
    double limit_ms = 0.0;     ///< latency limit on the kTailQ percentile
    Step nominal;
    Step peak;
    std::vector<Step> ladder;  ///< rates above peak (traced run)
};

ServeSettings settings_from(const gis::JsonValue& config, double seconds) {
    const gis::JsonValue& s = config.at("serve_zipf");
    ServeSettings out;
    out.limit_ms = s.at("latency_limit_ms").as_number();
    out.nominal.rate = s.at("nominal_rate").as_number();
    out.nominal.requests =
        static_cast<int>(std::lround(out.nominal.rate * seconds * kNominalShare));
    if (out.nominal.requests * (1.0 - kTailQ) < 10.0)
        throw std::runtime_error("serve_zipf: too few nominal requests for p98 to "
                                 "have ten samples beyond it; raise --seconds");
    out.peak = {s.at("peak_rate").as_number(), kStepRequests};
    for (const gis::JsonValue& v : s.at("ladder_rates").as_array())
        out.ladder.push_back({v.as_number(), kStepRequests});
    return out;
}

/// One server under test and the client connected to it: the server
/// runs serve_socket on its own thread, reloads read the index versions
/// through the FIFO, and every request and response is kept for the
/// checks at the end.
class Session {
public:
    Session(const RunArgs& args, const City& city,
            const std::vector<std::string>& versions, double budget_mb,
            const std::string& tag)
        : city_(city), versions_(versions), dir_(args.work_dir + "/" + tag) {
        std::filesystem::create_directories(dir_);
        log_path_ = dir_ + "/requests.log";
        socket_path_ = dir_ + "/serve.sock";
        fifo_path_ = dir_ + "/reload_index.csv";
        ::unlink(fifo_path_.c_str());
        if (::mkfifo(fifo_path_.c_str(), 0600) != 0)
            throw std::runtime_error("mkfifo " + fifo_path_ + ": " + std::strerror(errno));
        server_ = std::make_unique<serve::Server>(
            city.tiles, city.registry, options(budget_mb, log_path_));
        server_thread_ = std::thread([this] {
            try {
                server_->serve_socket(socket_path_);
            } catch (const std::exception& e) {
                server_error_ = e.what();
            }
        });
        try {
            client_.emplace(socket_path_, progress_);
        } catch (...) {
            // Connecting fails when serve_socket did: its thread is done.
            server_thread_.join();
            throw;
        }
    }

    ~Session() {
        feeder_.reset();
        if (!quit_sent_) {
            // The accept loop ends only on a quit; send one on this
            // connection, or on a fresh one if this one broke.
            try {
                client_->send("{\"op\":\"quit\"}");
            } catch (const std::exception&) {
                try {
                    client_.reset();
                    Progress unused;
                    Client(socket_path_, unused).send("{\"op\":\"quit\"}");
                } catch (const std::exception&) {
                }
            }
        }
        client_.reset();
        if (server_thread_.joinable()) server_thread_.join();
        ::unlink(fifo_path_.c_str());
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    serve::ServerOptions options(double budget_mb, const std::string& log) const {
        serve::ServerOptions o;
        const gis::CityRunOptions c = serve_city_options();
        o.state.config = c.config;
        o.state.topologies = c.topologies;
        o.state.eval = c.eval;
        o.state.memory_budget_bytes =
            static_cast<std::size_t>(budget_mb * 1024.0 * 1024.0);
        o.request_log_path = log;
        o.index_path = fifo_path_;
        o.feeder_path = city_.fixture.csv_feeder_path;
        return o;
    }

    /// Declare the whole request sequence up front (the index feeder has
    /// to know where the reloads are).
    void plan(const std::vector<Request>& requests) {
        std::vector<long> reloads;
        for (std::size_t i = 0; i < requests.size(); ++i)
            if (requests[i].op == "reload") reloads.push_back(static_cast<long>(i));
        feeder_.emplace(fifo_path_, std::vector<std::string>{versions_[1], versions_[0]},
                        reloads, progress_);
    }

    /// Send \p requests[begin, end) on their due times (open loop) or
    /// with at most \p window outstanding (closed loop, window > 0),
    /// sending none after \p stop_at.
    std::vector<Sample> run(const std::vector<Request>& requests, std::size_t begin,
                            std::size_t end, double rate, int window,
                            std::uint64_t arrival_seed,
                            Clock::time_point stop_at = Clock::time_point::max()) {
        std::mt19937_64 rng(arrival_seed);
        std::vector<Sample> samples;
        const long base = sent_;
        Clock::time_point due = Clock::now();
        for (std::size_t i = begin; i < end && Clock::now() < stop_at; ++i) {
            Sample& s = samples.emplace_back();
            s.request = requests[i];
            std::size_t misses_before = 0;
            if (window > 0) {
                client_->wait_for(sent_ - window + 1);
                if (window == 1) misses_before = server_->state().stats().misses;
                due = Clock::now();
            } else {
                const double u = (static_cast<double>(rng() >> 11) + 0.5) * 0x1.0p-53;
                due += std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(-std::log(u) / rate));
                std::this_thread::sleep_until(due);
            }
            s.due = due;
            s.sent = Clock::now();
            s.outstanding = sent_ - client_->received();
            client_->send(s.request.line);
            ++sent_;
            if (window == 1) {
                client_->wait_for(sent_);
                s.miss = server_->state().stats().misses > misses_before;
            }
        }
        client_->wait_for(sent_);
        if (client_->received() < sent_)
            throw std::runtime_error("serve: connection closed with " +
                                     std::to_string(sent_ - client_->received()) +
                                     " requests unanswered");
        for (std::size_t k = 0; k < samples.size(); ++k) {
            samples[k].received = client_->response(base + static_cast<long>(k)).second;
            samples[k].service_ms = samples[k].latency_ms();
        }
        all_.insert(all_.end(), samples.begin(), samples.end());
        return samples;
    }

    /// End the session, then check every response: rank payloads
    /// against the reference streams, the rest by status, and the whole
    /// transcript against a serial replay of the request log.
    void finish(const std::vector<std::vector<std::string>>& reference,
                Report& report, bool replay) {
        client_->send("{\"op\":\"quit\"}");
        quit_sent_ = true;
        ++sent_;
        client_->join();
        server_thread_.join();
        server_.reset();  // its memory is not the replay's
        feeder_.reset();
        if (!server_error_.empty()) report.fail(1, "server: " + server_error_);

        const std::string transcript = client_->transcript();
        const std::vector<std::string> lines = split_lines(transcript);
        report.attempted += sent_;
        if (static_cast<long>(lines.size()) != sent_)
            report.fail(std::abs(sent_ - static_cast<long>(lines.size())),
                        "responses missing: " + std::to_string(lines.size()) +
                            " of " + std::to_string(sent_));
        int version = 0;
        long bad = 0;
        std::string first_bad;
        for (std::size_t i = 0; i < all_.size() && i < lines.size(); ++i) {
            const Request& r = all_[i].request;
            const std::string& got = lines[i];
            bool ok = true;
            if (r.op == "rank") {
                const std::string& want_line =
                    reference[static_cast<std::size_t>(version)]
                             [static_cast<std::size_t>(r.roof)];
                ok = got == serve::ok_envelope(static_cast<long>(i), "rank") + "," +
                                want_line.substr(1);
            } else if (r.op == "plan") {
                ok = got.find("\"status\":\"ok\"") != std::string::npos ||
                     got.find("\"error\":\"place_greedy:") != std::string::npos;
            } else {
                ok = got.find("\"status\":\"ok\"") != std::string::npos;
            }
            if (r.op == "reload") version ^= 1;
            if (!ok) {
                ++bad;
                if (first_bad.empty()) first_bad = got.substr(0, 200);
            }
        }
        if (bad) report.fail(bad, std::to_string(bad) + " responses failed checks, first: " +
                                      first_bad);

        if (!replay) return;
        // A fresh server with room for every roof replays the log
        // serially; its bytes must equal the live session's.
        Progress progress;
        LineBuf buf(progress);
        std::ostream out(&buf);
        {
            std::vector<long> reloads;
            for (std::size_t i = 0; i < all_.size(); ++i)
                if (all_[i].request.op == "reload") reloads.push_back(static_cast<long>(i));
            IndexFeeder feeder(fifo_path_, {versions_[1], versions_[0]}, reloads,
                               progress);
            serve::Server replayer(city_.tiles, city_.registry, options(1e6, ""));
            replayer.replay(log_path_, out);
        }
        const long mismatched = count_line_mismatches(transcript, buf.text());
        if (mismatched)
            report.fail(mismatched, "replay differs in " + std::to_string(mismatched) +
                                        " responses");
    }

    serve::Server& server() { return *server_; }

private:
    const City& city_;
    const std::vector<std::string>& versions_;
    std::string dir_;
    std::string log_path_;
    std::string socket_path_;
    std::string fifo_path_;
    std::unique_ptr<serve::Server> server_;
    std::string server_error_;
    std::thread server_thread_;
    Progress progress_;
    std::optional<Client> client_;
    std::optional<IndexFeeder> feeder_;
    long sent_ = 0;
    bool quit_sent_ = false;
    std::vector<Sample> all_;
};

/// The latency summary of one open-loop step.
struct StepResult {
    double rate = 0.0;
    std::size_t n = 0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double tail_ms = 0.0;  ///< p98
    double achieved_rps = 0.0;
    double late_tail_ms = 0.0;
    bool backlog_growing = false;
    bool passed = false;
};

StepResult summarize(const std::vector<Sample>& samples, double rate,
                     double limit_ms) {
    StepResult r;
    r.rate = rate;
    r.n = samples.size();
    std::vector<double> latency;
    std::vector<double> late;
    for (const Sample& s : samples) {
        latency.push_back(s.latency_ms());
        late.push_back(std::chrono::duration<double, std::milli>(s.sent - s.due).count());
    }
    r.p50_ms = median(latency);
    r.p90_ms = quantile(latency, 0.9);
    r.tail_ms = quantile(latency, kTailQ);
    r.late_tail_ms = quantile(late, kTailQ);
    Clock::time_point last = samples.front().received;
    for (const Sample& s : samples) last = std::max(last, s.received);
    r.achieved_rps = static_cast<double>(samples.size()) /
                     std::chrono::duration<double>(last - samples.front().due).count();
    // A backlog grows when the requests in flight at send time rise from
    // the first third of the step to the last.
    const std::size_t third = samples.size() / 3;
    double head = 0.0;
    double tail = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
        head += static_cast<double>(samples[i].outstanding);
        tail += static_cast<double>(samples[samples.size() - 1 - i].outstanding);
    }
    r.backlog_growing = third > 0 && tail / third > 2.0 * head / third + 2.0;
    r.passed = r.tail_ms <= limit_ms && !r.backlog_growing;
    return r;
}

std::string describe(const StepResult& r) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "step %7.2f req/s: n=%zu p50=%.2f ms p90=%.2f ms p98=%.2f ms "
                  "achieved=%.2f "
                  "req/s late_tail=%.2f ms backlog=%s -> %s",
                  r.rate, r.n, r.p50_ms, r.p90_ms, r.tail_ms,
                  r.achieved_rps, r.late_tail_ms,
                  r.backlog_growing ? "growing" : "steady", r.passed ? "pass" : "fail");
    return buf;
}

/// The stream for the whole session: warm-up (rank every roof once,
/// least popular first), then the closed-loop stream (untraced), or the
/// nominal step, the peak step and the ladder (traced).
std::vector<Request> build_stream(RequestStream& stream, int roofs,
                                  const ServeSettings& settings, const RunArgs& args,
                                  int workers) {
    std::vector<Request> requests;
    for (int k = roofs - 1; k >= 0; --k)
        requests.push_back(stream.rank(stream.roof_at_rank(k)));
    long n = std::lround(kStreamPerWorkerSecond * workers * args.seconds);
    if (args.trace) {
        n = settings.nominal.requests + settings.peak.requests;
        for (const ServeSettings::Step& step : settings.ladder) n += step.requests;
    }
    for (long i = 0; i < n; ++i) requests.push_back(stream.next());
    return requests;
}

}  // namespace

Report run_serve_zipf(const RunArgs& args) {
    std::signal(SIGPIPE, SIG_IGN);
    Report report;
    const ServeSettings settings = settings_from(args.config, args.seconds);
    const int workers = std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);

    // ---- Set-up: the reference streams, the city (three times, median),
    // both index versions, server start and warm-up.  The city, the
    // popularity order and the edited records are those of the default
    // seed; the run's seed draws the requests and their arrival times.
    // With the city and its popular roofs varying too, the daemon's
    // capacity moved by a third from seed to seed, more than any bound
    // could hold.
    const auto fixed_seed =
        static_cast<std::uint64_t>(args.config.at("default_seed").as_number());
    const Clock::time_point reference_t0 = Clock::now();
    const std::vector<std::string> reference_jsonl =
        reference_streams(args.work_dir + "/reference", fixed_seed);
    const double reference_s = seconds_since(reference_t0);
    std::optional<City> city;
    std::vector<double> city_s;
    for (int i = 0; i < 3; ++i) {
        const Clock::time_point t0 = Clock::now();
        city.emplace(make_city(args.work_dir + "/city", fixed_seed));
        city_s.push_back(seconds_since(t0));
    }
    const Clock::time_point rest_t0 = Clock::now();
    const std::vector<std::string> versions = index_versions(*city, fixed_seed);
    std::vector<std::vector<std::string>> reference;
    for (const std::string& jsonl : reference_jsonl) reference.push_back(split_lines(jsonl));
    const pvfp::grid::FeederModel feeders =
        pvfp::grid::FeederModel::load(city->fixture.csv_feeder_path);
    RequestStream stream(*city, feeders, fixed_seed, args.seed);
    const int roofs = static_cast<int>(city->registry.size());
    const std::vector<Request> requests =
        build_stream(stream, roofs, settings, args, workers);
    const std::size_t warm_end = static_cast<std::size_t>(roofs);
    const std::size_t nominal_end = warm_end + static_cast<std::size_t>(settings.nominal.requests);
    const std::size_t peak_end = nominal_end + static_cast<std::size_t>(settings.peak.requests);

    pvfp::set_thread_count(workers);
    std::optional<Session> session;
    session.emplace(args, *city, versions, kBudgetMb, "open");
    session->plan(requests);
    (void)session->run(requests, 0, warm_end, 0.0, 1, 0);
    const double setup_s = reference_s + median(city_s) + seconds_since(rest_t0);

    if (!args.trace) {
        // Closed loop for the run's seconds: the work the daemon completes
        // per second when it never waits for a request.  The server
        // batches up to 2 x workers requests and spreads a batch over the
        // pool only when it holds at least `workers`, so two full batches
        // outstanding keep every worker busy on any core count.  Open-loop
        // latency is a traced figure: on a 4-vCPU VM it moved by half
        // between runs of one seed, with the vCPUs' wake-up delays.
        const int window = 4 * workers;
        const Clock::time_point t0 = Clock::now();
        const std::size_t n =
            session->run(requests, warm_end, requests.size(), 0.0, window, 0,
                         t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(args.seconds)))
                .size();
        const double rps = static_cast<double>(n) / seconds_since(t0);
        report.lines.push_back("closed loop, " + std::to_string(window) +
                               " outstanding: " + std::to_string(n) + " requests, " +
                               std::to_string(rps) + " req/s");
        report.set("peak_rss_mb", peak_rss_mb(), "MiB");  // before the replay
        session->finish(reference, report, true);
        session.reset();
        pvfp::set_thread_count(0);
        report.set("setup_s", setup_s, "s");
        report.set("throughput_per_s", rps, "1/s");
        return report;
    }

    // ---- Traced: open loop at the nominal rate, the peak rate, then the
    // ladder: higher rates until one misses the limit or its backlog
    // grows.
    std::vector<StepResult> steps;
    const std::vector<Sample> nominal_samples = session->run(
        requests, warm_end, nominal_end, settings.nominal.rate, 0, args.seed * 1000003ull);
    steps.push_back(summarize(nominal_samples, settings.nominal.rate, settings.limit_ms));
    steps.push_back(summarize(session->run(requests, nominal_end, peak_end,
                                           settings.peak.rate, 0, args.seed * 1000003ull + 1),
                              settings.peak.rate, settings.limit_ms));
    std::size_t offset = peak_end;
    for (std::size_t s = 0; s < settings.ladder.size() && steps.back().passed; ++s) {
        const ServeSettings::Step& step = settings.ladder[s];
        const std::size_t end = offset + static_cast<std::size_t>(step.requests);
        steps.push_back(summarize(session->run(requests, offset, end, step.rate, 0,
                                               args.seed * 1000003ull + 2 + s),
                                  step.rate, settings.limit_ms));
        offset = end;
    }
    for (const StepResult& r : steps) report.lines.push_back(describe(r));
    const serve::ResidentStats stats = session->server().state().stats();
    session->finish(reference, report, true);
    session.reset();
    report.lines.push_back("serve: " + std::to_string(workers) + " workers, budget " +
                           std::to_string(kBudgetMb) + " MiB, hits " +
                           std::to_string(stats.hits) + ", misses " +
                           std::to_string(stats.misses) + ", evictions " +
                           std::to_string(stats.evictions) + ", invalidations " +
                           std::to_string(stats.invalidations));

    const StepResult& nominal = steps[0];
    report.set("quality.improvement_pct_mean", improvement_pct_mean(reference_jsonl[0]),
               "%");
    double max_rps = 0.0;
    for (const StepResult& r : steps)
        if (r.passed) max_rps = r.rate;
    report.set("serve.max_rps", max_rps, "1/s");
    report.set("serve.p50_ms", nominal.p50_ms, "ms");
    report.set("serve.p90_ms", nominal.p90_ms, "ms");
    report.set("serve.p98_ms", nominal.tail_ms, "ms");
    report.set("serve.p98_ms_peak", steps[1].tail_ms, "ms");
    report.set("serve.generator_late_ms_p98", nominal.late_tail_ms, "ms");
    report.set("serve.backlog_growing", nominal.backlog_growing ? 1.0 : 0.0, "flag");
    const double lookups = static_cast<double>(stats.hits + stats.misses);
    report.set("serve.prepared_hit_ratio",
               lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0, "ratio");
    report.set("serve.evictions", static_cast<double>(stats.evictions), "count");
    report.set("serve.invalidations", static_cast<double>(stats.invalidations), "count");
    report.set("serve.resident_mb", static_cast<double>(stats.resident_bytes) / (1 << 20),
               "MiB");

    // ---- The same nominal stream with one request outstanding, on a
    // fresh server warmed the same way, gives each request's service
    // time; its open-loop latency minus that is the time it queued.
    session.emplace(args, *city, versions, kBudgetMb, "closed");
    const std::vector<Request> closed_requests(requests.begin(),
                                               requests.begin() + static_cast<long>(nominal_end));
    session->plan(closed_requests);
    (void)session->run(closed_requests, 0, warm_end, 0.0, 1, 0);
    const std::vector<Sample> closed =
        session->run(closed_requests, warm_end, nominal_end, 0.0, 1, 0);
    session->finish(reference, report, false);
    session.reset();
    pvfp::set_thread_count(0);

    std::map<std::string, std::vector<double>> service;
    std::vector<double> wait;
    for (std::size_t i = 0; i < closed.size(); ++i) {
        const Sample& c = closed[i];
        std::string cls = c.request.op;
        if (cls == "rank" || cls == "plan") cls += c.miss ? "_miss" : "_hit";
        service[cls].push_back(c.service_ms);
        wait.push_back(std::max(0.0, nominal_samples[i].latency_ms() - c.service_ms));
    }
    for (const char* cls : {"rank_hit", "rank_miss", "plan_hit", "grid_rank", "reload"})
        report.set(std::string("serve.service_ms.") + cls, median(service[cls]), "ms");
    report.set("serve.queue_wait_ms_p50", median(wait), "ms");
    report.set("serve.queue_wait_ms_p98", quantile(wait, kTailQ), "ms");
    return report;
}

}  // namespace perfbench
