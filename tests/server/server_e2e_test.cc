// End-to-end daemon tests over the socket: lifecycle, handshake policing,
// malformed-frame handling (connection-fatal), abort/empty-backup edges,
// stats content, quota-accounting recovery across a daemon restart and a
// kill after a delete, a finish whose staging throws, and remote shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/varint.h"
#include "server/client_conn.h"
#include "server/server.h"
#include "server/socket.h"
#include "server/wire.h"
#include "storage/file_backup_store.h"
#include "temp_store.h"

namespace freqdedup::server {
namespace {

ByteVec randomContent(uint64_t seed, size_t n) {
  Rng rng(seed);
  ByteVec data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.next());
  return data;
}

class ServerE2E : public ::testing::Test {
 protected:
  void startServer(ServerOptions options = {}) {
    if (options.address.empty())
      options.address = "unix:" + tmp_.path() + "/sock";
    options.store.containerBytes = 256 * 1024;
    server_ =
        std::make_unique<FreqDedupServer>(tmp_.path() + "/store", options);
    server_->start();
  }

  [[nodiscard]] RemoteDedupClient connect(const std::string& tenant) const {
    return RemoteDedupClient(server_->boundAddress().str(), tenant, "pw");
  }

  /// One whole remote backup.
  static void backup(RemoteDedupClient& client, const std::string& name,
                     ByteView data) {
    const RemoteBackup b = client.openBackup(name);
    client.append(b, data);
    client.finishBackup(b);
  }

  /// Raw (non-client) connection for protocol-violation tests.
  [[nodiscard]] Fd rawConnect() const {
    return connectTo(server_->boundAddress());
  }

  // Store and socket live in a directory of this test alone, declared
  // before the server so that the server stops before the directory goes.
  const TempDir tmp_;
  std::unique_ptr<FreqDedupServer> server_;
};

TEST_F(ServerE2E, BackupRestoreDeleteOverTcp) {
  ServerOptions options;
  options.address = "tcp:127.0.0.1:0";  // ephemeral port
  startServer(options);
  ASSERT_EQ(server_->boundAddress().kind, Address::Kind::kTcp);
  ASSERT_NE(server_->boundAddress().port, 0);

  RemoteDedupClient client = connect("acme");
  const ByteVec content = randomContent(1, 300 * 1024);
  const RemoteBackup b = client.openBackup("vm.img");
  // Multiple appends exercise the streaming path.
  const size_t half = content.size() / 2;
  client.append(b, ByteView(content.data(), half));
  client.append(b, ByteView(content.data() + half, content.size() - half));
  const RemoteBackupResult result = client.finishBackup(b);
  EXPECT_GT(result.chunkCount, 0u);
  EXPECT_EQ(result.newChunks + result.duplicateChunks, result.chunkCount);

  EXPECT_EQ(client.restoreAll("vm.img"), content);
  EXPECT_TRUE(client.deleteBackup("vm.img"));
  EXPECT_FALSE(client.deleteBackup("vm.img"));
}

TEST_F(ServerE2E, EmptyBackupRoundTrips) {
  startServer();
  RemoteDedupClient client = connect("acme");
  const RemoteBackup b = client.openBackup("empty");
  const RemoteBackupResult result = client.finishBackup(b);
  EXPECT_EQ(result.chunkCount, 0u);
  EXPECT_TRUE(client.restoreAll("empty").empty());
}

TEST_F(ServerE2E, AbortedBackupIsNeverVisible) {
  startServer();
  RemoteDedupClient client = connect("acme");
  const RemoteBackup b = client.openBackup("doomed");
  client.append(b, randomContent(2, 32 * 1024));
  client.abortBackup(b);
  EXPECT_TRUE(client.listBackups().empty());
  // Operating on the aborted id is a clean semantic error, not a hang or
  // connection loss.
  try {
    client.finishBackup(b);
    FAIL() << "finish of aborted backup succeeded";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  EXPECT_TRUE(client.listBackups().empty());  // connection still alive
}

TEST_F(ServerE2E, HelloRejectsBadMagicAndVersion) {
  startServer();
  {
    Fd fd = rawConnect();
    Hello bad;
    bad.magic = 0xDEADBEEF;
    bad.tenant = "acme";
    writeFrame(fd.get(), encode(bad));
    const auto reply = readFrame(fd.get());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(decodeErrorReply(*reply).code, ErrorCode::kProtocol);
    // Server closes after the error.
    EXPECT_FALSE(readFrame(fd.get()).has_value());
  }
  {
    Fd fd = rawConnect();
    Hello bad;
    bad.version = kWireVersion + 7;
    bad.tenant = "acme";
    writeFrame(fd.get(), encode(bad));
    const auto reply = readFrame(fd.get());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(decodeErrorReply(*reply).code, ErrorCode::kBadRequest);
  }
  {
    // Invalid tenant id ('/' would break the namespace encoding).
    Fd fd = rawConnect();
    Hello bad;
    bad.tenant = "a/b";
    writeFrame(fd.get(), encode(bad));
    const auto reply = readFrame(fd.get());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(decodeErrorReply(*reply).code, ErrorCode::kBadRequest);
  }
}

TEST_F(ServerE2E, RequestBeforeHelloIsRejected) {
  startServer();
  Fd fd = rawConnect();
  writeFrame(fd.get(), encode(ListBackups{}));
  const auto reply = readFrame(fd.get());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(decodeErrorReply(*reply).code, ErrorCode::kProtocol);
  EXPECT_FALSE(readFrame(fd.get()).has_value());
}

TEST_F(ServerE2E, MalformedFrameClosesConnectionButNotServer) {
  startServer();
  {
    // Garbage bytes that are not even a frame: the server drops the
    // connection (possibly after a best-effort protocol error).
    Fd fd = rawConnect();
    const ByteVec junk = randomContent(3, 64);
    writeFull(fd.get(), junk.data(), junk.size());
    // Either an ErrorReply arrives or the socket just closes; both are
    // acceptable, crashing or hanging is not.
    try {
      while (readFrame(fd.get()).has_value()) {
      }
    } catch (const std::exception&) {
    }
  }
  {
    // A valid frame whose payload is an unknown message type.
    Fd fd = rawConnect();
    writeFrame(fd.get(), ByteVec{0x3F});
    try {
      const auto reply = readFrame(fd.get());
      if (reply)
        EXPECT_EQ(decodeErrorReply(*reply).code, ErrorCode::kProtocol);
    } catch (const std::exception&) {
    }
  }
  // The daemon survived both abuses and serves normal clients.
  RemoteDedupClient client = connect("acme");
  const RemoteBackup b = client.openBackup("still-alive");
  client.append(b, randomContent(4, 8 * 1024));
  client.finishBackup(b);
  EXPECT_EQ(client.restoreAll("still-alive"), randomContent(4, 8 * 1024));
}

TEST_F(ServerE2E, StatsExposeServerAndTenantCounters) {
  startServer();
  RemoteDedupClient client = connect("acme");
  const RemoteBackup b = client.openBackup("obj");
  client.append(b, randomContent(5, 64 * 1024));
  client.finishBackup(b);

  const std::string json = client.statsJson();
  EXPECT_NE(json.find("server.requests"), std::string::npos) << json;
  EXPECT_NE(json.find("server.connections_opened"), std::string::npos);
  EXPECT_NE(json.find("tenant.acme.chunks"), std::string::npos);
  EXPECT_NE(json.find("tenant.acme.logical_bytes"), std::string::npos);
  EXPECT_NE(json.find("tenant.acme.backups_committed"), std::string::npos);
}

TEST_F(ServerE2E, RestartRecoversTenantAccounting) {
  // Quota small enough that recovery errors would change admission.
  ServerOptions options;
  options.address = "unix:" + tmp_.path() + "/sock";
  options.quota.maxLogicalBytes = 100 * 1024;
  options.quota.maxBackups = 3;
  startServer(options);
  {
    RemoteDedupClient client = connect("acme");
    const RemoteBackup b = client.openBackup("a");
    client.append(b, randomContent(6, 60 * 1024));
    client.finishBackup(b);
  }
  // Restart the daemon over the same store.
  server_.reset();
  startServer(options);
  EXPECT_EQ(server_->tenants().logicalBytes("acme"), 60u * 1024);
  EXPECT_EQ(server_->tenants().backupCount("acme"), 1u);
  {
    RemoteDedupClient client = connect("acme");
    // Old backup still restorable.
    EXPECT_EQ(client.restoreAll("a"), randomContent(6, 60 * 1024));
    // The recovered 60k of usage must make another 60k backup fail...
    const RemoteBackup b = client.openBackup("b");
    client.append(b, randomContent(7, 60 * 1024));
    try {
      client.finishBackup(b);
      FAIL() << "recovered accounting did not enforce the quota";
    } catch (const RemoteError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kQuotaExceeded);
    }
    // ...while replacing the existing one (delta accounting) still fits.
    const RemoteBackup r = client.openBackup("a");
    client.append(r, randomContent(8, 80 * 1024));
    client.finishBackup(r);
    EXPECT_EQ(client.restoreAll("a"), randomContent(8, 80 * 1024));
  }
  EXPECT_EQ(server_->tenants().logicalBytes("acme"), 80u * 1024);
}

TEST_F(ServerE2E, KillAfterDeleteKeepsAccountingExact) {
  startServer();
  {
    RemoteDedupClient client = connect("acme");
    backup(client, "b", randomContent(20, 40 * 1024));
    backup(client, "a", randomContent(21, 60 * 1024));
    EXPECT_TRUE(client.deleteBackup("a"));
  }
  // Copying the store while its daemon runs keeps what reached the files
  // and drops what was still buffered: a kill right after the delete.
  const std::string copy = tmp_.path() + "/copy";
  std::filesystem::copy(tmp_.path() + "/store", copy,
                        std::filesystem::copy_options::recursive);
  ServerOptions options;
  options.address = "unix:" + tmp_.path() + "/sock2";
  options.store.containerBytes = 256 * 1024;
  FreqDedupServer restarted(copy, options);
  restarted.start();
  {
    RemoteDedupClient client(restarted.boundAddress().str(), "acme", "pw");
    backup(client, "a", randomContent(22, 20 * 1024));
  }
  EXPECT_EQ(restarted.tenants().logicalBytes("acme"), 61440u);
  EXPECT_EQ(restarted.tenants().backupCount("acme"), 2u);
}

TEST_F(ServerE2E, LegacyUsageBlobIsIgnoredAtRestart) {
  startServer();
  {
    RemoteDedupClient client = connect("acme");
    backup(client, "a", randomContent(23, 60 * 1024));
  }
  server_.reset();
  {
    // What an older daemon persisted per backup, here with a wrong size,
    // plus one for a backup that does not exist.
    FileBackupStore store(tmp_.path() + "/store");
    ByteVec wrong;
    putVarint(wrong, 999);
    store.putBlob("tenantu:t/acme/a", wrong);
    store.putBlob("tenantu:t/acme/gone", wrong);
    store.flush();
  }
  startServer();
  EXPECT_EQ(server_->tenants().logicalBytes("acme"), 60u * 1024);
  EXPECT_EQ(server_->tenants().backupCount("acme"), 1u);
}

TEST_F(ServerE2E, FinishWhoseStagingThrowsLeavesNoUsageAndStopReturns) {
  startServer();
  {
    RemoteDedupClient client = connect("acme");
    const RemoteBackup b = client.openBackup("a");
    client.append(b, randomContent(24, 256 * 1024));
    // GC reclaims the open session's chunks, none of which a manifest
    // references yet, so staging its commit throws.
    server_->store().collectGarbage();
    try {
      client.finishBackup(b);
      FAIL() << "finish over reclaimed chunks succeeded";
    } catch (const RemoteError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kServerError);
    }
    EXPECT_TRUE(client.listBackups().empty());  // connection still alive
  }
  EXPECT_EQ(server_->tenants().logicalBytes("acme"), 0u);
  EXPECT_EQ(server_->tenants().backupCount("acme"), 0u);
  auto stopped = std::async(std::launch::async, [this] { server_->stop(); });
  if (stopped.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    // Leak the stuck stop() and its server, so the test fails instead of
    // hanging in their destructors.
    (void)server_.release();
    (void)new std::future<void>(std::move(stopped));
    FAIL() << "stop() did not return within 10 s";
  }
}

TEST_F(ServerE2E, ConcurrentConnectionsOneTenant) {
  startServer();
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RemoteDedupClient client = connect("acme");
      const std::string name = "obj" + std::to_string(t);
      const ByteVec content =
          randomContent(static_cast<uint64_t>(100 + t), 32 * 1024);
      const RemoteBackup b = client.openBackup(name);
      client.append(b, content);
      client.finishBackup(b);
      ASSERT_EQ(client.restoreAll(name), content);
    });
  }
  for (auto& th : threads) th.join();
  RemoteDedupClient client = connect("acme");
  EXPECT_EQ(client.listBackups().size(), static_cast<size_t>(kThreads));
}

TEST_F(ServerE2E, RemoteShutdownWhenAllowed) {
  ServerOptions options;
  options.allowShutdown = true;
  startServer(options);
  {
    RemoteDedupClient client = connect("acme");
    client.shutdownServer();
  }
  // waitShutdownRequested returns promptly once the request landed.
  server_->waitShutdownRequested();
  EXPECT_TRUE(server_->shutdownRequested());
  server_->stop();
}

TEST_F(ServerE2E, RemoteShutdownRejectedWhenDisallowed) {
  ServerOptions options;
  options.allowShutdown = false;
  startServer(options);
  RemoteDedupClient client = connect("acme");
  try {
    client.shutdownServer();
    FAIL() << "shutdown succeeded on allowShutdown=false server";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  EXPECT_FALSE(server_->shutdownRequested());
}

TEST_F(ServerE2E, WrongTenantPassphraseIsRejected) {
  startServer();
  // First Hello registers the tenant's verifier...
  { RemoteDedupClient client = connect("acme"); }
  // ...after which a mismatching passphrase is an auth failure and the
  // connection is closed (no post-failure requests sneak through).
  Fd fd = rawConnect();
  Hello hello;
  hello.tenant = "acme";
  hello.passphrase = "not-pw";
  writeFrame(fd.get(), encode(hello));
  const auto reply = readFrame(fd.get());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(decodeErrorReply(*reply).code, ErrorCode::kAuthFailed);
  EXPECT_FALSE(readFrame(fd.get()).has_value());
  // The correct passphrase still works.
  RemoteDedupClient client = connect("acme");
  EXPECT_TRUE(client.listBackups().empty());
}

TEST_F(ServerE2E, AuthVerifierSurvivesRestart) {
  ServerOptions options;
  options.address = "unix:" + tmp_.path() + "/sock";
  startServer(options);
  {
    RemoteDedupClient client = connect("acme");
    const RemoteBackup b = client.openBackup("a");
    client.append(b, randomContent(20, 16 * 1024));
    client.finishBackup(b);
  }
  server_.reset();
  startServer(options);
  // The verifier persisted: a wrong passphrase cannot re-register the
  // tenant after a restart, and the right one still restores.
  try {
    RemoteDedupClient bad(server_->boundAddress().str(), "acme", "guess");
    FAIL() << "wrong passphrase accepted after restart";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAuthFailed);
  }
  RemoteDedupClient client = connect("acme");
  EXPECT_EQ(client.restoreAll("a"), randomContent(20, 16 * 1024));
}

TEST_F(ServerE2E, ShutdownRejectedOverTcp) {
  // Even with allowShutdown on, a TCP peer is never privileged — shutdown
  // is reserved for same-uid unix-socket peers (SO_PEERCRED).
  ServerOptions options;
  options.address = "tcp:127.0.0.1:0";
  options.allowShutdown = true;
  startServer(options);
  RemoteDedupClient client = connect("acme");
  try {
    client.shutdownServer();
    FAIL() << "TCP peer was allowed to shut the daemon down";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
  EXPECT_FALSE(server_->shutdownRequested());
  // The connection survives the refusal.
  EXPECT_TRUE(client.listBackups().empty());
}

TEST_F(ServerE2E, ListPaginatesLargeTenants) {
  ServerOptions options;
  options.listBytesPerReply = 32;  // force multi-page listings
  startServer(options);
  RemoteDedupClient client = connect("acme");
  std::vector<std::string> expected;
  for (int i = 0; i < 12; ++i) {
    const std::string name = "backup-" + std::to_string(100 + i);
    client.finishBackup(client.openBackup(name));
    expected.push_back(name);
  }
  // The client walks the continuation cursor transparently...
  EXPECT_EQ(client.listBackups(), expected);

  // ...and the raw protocol really does truncate and resume.
  Fd fd = rawConnect();
  Hello hello;
  hello.tenant = "acme";
  hello.passphrase = "pw";
  writeFrame(fd.get(), encode(hello));
  ASSERT_TRUE(readFrame(fd.get()).has_value());
  writeFrame(fd.get(), encode(ListBackups{}));
  const auto pageRaw = readFrame(fd.get());
  ASSERT_TRUE(pageRaw.has_value());
  const ListResult page = decodeListResult(*pageRaw);
  EXPECT_TRUE(page.truncated);
  ASSERT_FALSE(page.names.empty());
  EXPECT_LT(page.names.size(), expected.size());
  ListBackups next;
  next.startAfter = page.names.back();
  writeFrame(fd.get(), encode(next));
  const auto page2Raw = readFrame(fd.get());
  ASSERT_TRUE(page2Raw.has_value());
  const ListResult page2 = decodeListResult(*page2Raw);
  ASSERT_FALSE(page2.names.empty());
  EXPECT_GT(page2.names.front(), page.names.back());
}

TEST_F(ServerE2E, PerConnectionOpenStreamCaps) {
  startServer();
  RemoteDedupClient client = connect("acme");
  client.finishBackup(client.openBackup("obj"));

  Fd fd = rawConnect();
  Hello hello;
  hello.tenant = "acme";
  hello.passphrase = "pw";
  writeFrame(fd.get(), encode(hello));
  ASSERT_TRUE(readFrame(fd.get()).has_value());
  // 64 concurrently open backups are fine; the 65th is a clean semantic
  // error, and likewise for restores.
  for (int i = 0; i < 64; ++i) {
    writeFrame(fd.get(), encode(BackupOpen{"b" + std::to_string(i)}));
    const auto reply = readFrame(fd.get());
    ASSERT_TRUE(reply.has_value());
    decodeBackupOpened(*reply);
  }
  writeFrame(fd.get(), encode(BackupOpen{"one-too-many"}));
  auto reply = readFrame(fd.get());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(decodeErrorReply(*reply).code, ErrorCode::kBadRequest);
  for (int i = 0; i < 64; ++i) {
    writeFrame(fd.get(), encode(RestoreOpen{"obj"}));
    const auto opened = readFrame(fd.get());
    ASSERT_TRUE(opened.has_value());
    decodeRestoreOpened(*opened);
  }
  writeFrame(fd.get(), encode(RestoreOpen{"obj"}));
  reply = readFrame(fd.get());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(decodeErrorReply(*reply).code, ErrorCode::kBadRequest);
}

TEST_F(ServerE2E, RestoreRangeSemantics) {
  startServer();
  RemoteDedupClient client = connect("acme");
  const ByteVec content = randomContent(9, 100 * 1024);
  const RemoteBackup b = client.openBackup("obj");
  client.append(b, content);
  client.finishBackup(b);

  // Drive the range protocol by hand to pin down clamp/EOF behavior.
  Fd fd = rawConnect();
  Hello hello;
  hello.tenant = "acme";
  hello.passphrase = "pw";
  writeFrame(fd.get(), encode(hello));
  ASSERT_TRUE(readFrame(fd.get()).has_value());

  writeFrame(fd.get(), encode(RestoreOpen{"obj"}));
  const auto openedRaw = readFrame(fd.get());
  ASSERT_TRUE(openedRaw.has_value());
  const RestoreOpened opened = decodeRestoreOpened(*openedRaw);
  EXPECT_EQ(opened.size, content.size());

  // Range in the middle returns exactly the requested bytes.
  writeFrame(fd.get(), encode(RestoreRange{opened.restoreId, 1000, 5000}));
  auto data = readFrame(fd.get());
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(decodeRestoreData(*data).data,
            ByteVec(content.begin() + 1000, content.begin() + 6000));

  // Range past the end: empty data (EOF signal), not an error.
  writeFrame(fd.get(),
             encode(RestoreRange{opened.restoreId, opened.size + 10, 100}));
  data = readFrame(fd.get());
  ASSERT_TRUE(data.has_value());
  EXPECT_TRUE(decodeRestoreData(*data).data.empty());

  // Length clamped at the object end.
  writeFrame(fd.get(),
             encode(RestoreRange{opened.restoreId, opened.size - 7, 1000}));
  data = readFrame(fd.get());
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(decodeRestoreData(*data).data,
            ByteVec(content.end() - 7, content.end()));

  writeFrame(fd.get(), encode(RestoreClose{opened.restoreId}));
  const auto ok = readFrame(fd.get());
  ASSERT_TRUE(ok.has_value());
  decodeOk(*ok);

  // Unknown restore id after close: clean semantic error.
  writeFrame(fd.get(), encode(RestoreRange{opened.restoreId, 0, 10}));
  const auto err = readFrame(fd.get());
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(decodeErrorReply(*err).code, ErrorCode::kBadRequest);
}

}  // namespace
}  // namespace freqdedup::server
