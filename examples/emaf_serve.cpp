// Network-serving quickstart: build a tiny snapshot directory (three
// untrained LSTM tenants), start the epoll serving front-end on an
// ephemeral loopback port, and talk to it with the in-repo client — ping,
// then one forecast per tenant, printing the served bytes.
//
//   ./build/examples/emaf_serve                 # demo, exits when done
//   ./build/examples/emaf_serve --serve-forever # leave the server up for
//                                               # external clients
//
// The wire protocol and overload contract are documented in DESIGN.md
// ("Network serving"); the same Client class drives the loopback tests
// and emafbench's load generator.

#include <csignal>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.h"
#include "models/registry.h"
#include "serve/client.h"
#include "serve/server.h"
#include "tensor/tensor.h"

namespace {
// SIGTERM/SIGINT request a *graceful* drain, not an abrupt exit: finish
// in-flight forecasts, flush their replies, refuse new work with a
// structured "draining" error — the lifecycle a process manager expects.
volatile std::sig_atomic_t g_shutdown_requested = 0;
void HandleShutdownSignal(int) { g_shutdown_requested = 1; }
}  // namespace

int main(int argc, char** argv) {
  using namespace emaf;  // NOLINT: example brevity

  bool serve_forever = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--serve-forever") serve_forever = true;
  }

  // 1. Snapshots: three tenants, deterministic tiny LSTMs. A real
  //    deployment points the server at its training-run snapshot
  //    directory (or a MANIFEST — see ModelStore::Open).
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/emaf_serve_demo";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const int64_t vars = 3, steps = 2;
  for (const char* tenant : {"i01", "i02", "i03"}) {
    models::ModelConfig config;
    config.family = "LSTM";
    config.num_variables = vars;
    config.input_length = steps;
    config.lstm.hidden_units = 4;
    Rng rng(std::hash<std::string>{}(tenant));
    std::unique_ptr<models::Forecaster> model =
        models::CreateForecasterOrDie(config, &rng);
    Status saved = models::SaveForecasterSnapshot(
        model.get(), config, dir + "/" + tenant + ".snapshot");
    if (!saved.ok()) {
      std::cerr << "snapshot failed: " << saved.ToString() << "\n";
      return 1;
    }
  }

  // 2. Server: ephemeral port on 127.0.0.1; the event loop owns the
  //    sockets, the global thread pool executes the micro-batches.
  Result<serve::Server> started = serve::Server::Start(dir);
  if (!started.ok()) {
    std::cerr << "server start failed: " << started.status().ToString()
              << "\n";
    return 1;
  }
  serve::Server server = std::move(started).value();
  std::cout << "serving " << server.store().num_known_models()
            << " tenants on 127.0.0.1:" << server.port() << "\n";

  // 3. Client: ping, then one forecast per tenant.
  Result<serve::Client> connected = serve::Client::Connect(server.port());
  if (!connected.ok()) {
    std::cerr << "connect failed: " << connected.status().ToString() << "\n";
    return 1;
  }
  serve::Client client = std::move(connected).value();
  Status ping = client.Ping();
  std::cout << "ping: " << (ping.ok() ? "pong" : ping.ToString()) << "\n";

  Rng window_rng(7);
  tensor::Tensor window =
      tensor::Tensor::Uniform(tensor::Shape{1, steps, vars}, -1, 1,
                              &window_rng);
  for (const char* tenant : {"i01", "i02", "i03"}) {
    Result<tensor::Tensor> forecast = client.Forecast(tenant, window);
    if (!forecast.ok()) {
      std::cerr << tenant << ": " << forecast.status().ToString() << "\n";
      return 1;
    }
    std::cout << tenant << " forecast:";
    for (double v : forecast.value().ToVector()) std::cout << " " << v;
    std::cout << "\n";
  }

  // An unknown tenant comes back as a structured error, not a hang.
  Result<tensor::Tensor> missing = client.Forecast("stranger", window);
  std::cout << "stranger: " << missing.status().ToString() << "\n";

  serve::Server::Stats stats = server.stats();
  std::cout << "server stats: " << stats.frames_received << " frames in, "
            << stats.frames_sent << " out, " << stats.requests_ok
            << " ok, " << stats.requests_failed << " failed\n";

  if (serve_forever) {
    std::signal(SIGTERM, HandleShutdownSignal);
    std::signal(SIGINT, HandleShutdownSignal);
    std::cout << "serving forever on 127.0.0.1:" << server.port()
              << " (SIGTERM/ctrl-c drains gracefully)\n";
    while (g_shutdown_requested == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::cout << "shutdown signal received; draining...\n";
    server.BeginDrain();
    const bool clean = server.WaitDrained(/*timeout_ms=*/10000);
    std::cout << (clean ? "drained: all in-flight work finished and flushed"
                        : "drain timed out; stopping anyway")
              << "\n";
    server.Stop();
  }
  std::filesystem::remove_all(dir);
  return 0;
}
