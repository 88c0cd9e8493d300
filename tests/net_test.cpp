// Tests for the TCP overlay and the HTTP message model.
#include <gtest/gtest.h>

#include "fabric/fabric.hpp"
#include "net/http.hpp"
#include "net/tcp.hpp"

namespace rfs::net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    eng.make_current();
    devA = &fab.create_device("A");
    devB = &fab.create_device("B");
  }

  sim::Engine eng;
  fabric::Fabric fab{eng};
  fabric::Device* devA = nullptr;
  fabric::Device* devB = nullptr;
  TcpNetwork tcp{eng, fab.net()};
};

TEST_F(NetTest, ConnectSendReceive) {
  auto& listener = tcp.listen(devB->id(), 80);
  Bytes received;
  auto server = [&]() -> sim::Task<void> {
    auto stream = co_await listener.accept();
    auto msg = co_await stream->recv();
    if (msg) received = *msg;
    stream->send(Bytes{42});
  };
  Bytes reply;
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 80);
    EXPECT_TRUE(res.ok());
    auto stream = res.value();
    Bytes payload(1000);
    fill_pattern(payload, 7);
    stream->send(payload);
    auto r = co_await stream->recv();
    if (r) reply = *r;
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();
  EXPECT_EQ(received.size(), 1000u);
  EXPECT_EQ(reply, Bytes{42});
}

TEST_F(NetTest, TcpSlowerThanRdmaForSmallMessages) {
  // One TCP round trip must exceed the RDMA ping-pong RTT (Fig. 8).
  auto& listener = tcp.listen(devB->id(), 80);
  auto server = [&]() -> sim::Task<void> {
    auto stream = co_await listener.accept();
    auto msg = co_await stream->recv();
    (void)msg;
    stream->send(Bytes{1});
  };
  Time start = 0, end = 0;
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 80);
    auto stream = res.value();
    start = eng.now();
    stream->send(Bytes{1});
    (void)co_await stream->recv();
    end = eng.now();
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();
  Duration rtt = end - start;
  EXPECT_GT(rtt, 15_us);  // ~19 us with the netperf-calibrated model
  EXPECT_LT(rtt, 25_us);
}

TEST_F(NetTest, ConnectionRefusedWithoutListener) {
  bool refused = false;
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 12345);
    refused = !res.ok();
  };
  sim::spawn(eng, client());
  eng.run();
  EXPECT_TRUE(refused);
}

TEST_F(NetTest, CloseWakesPeer) {
  auto& listener = tcp.listen(devB->id(), 80);
  bool saw_close = false;
  auto server = [&]() -> sim::Task<void> {
    auto stream = co_await listener.accept();
    auto msg = co_await stream->recv();
    saw_close = !msg.has_value();
  };
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 80);
    res.value()->close();
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();
  EXPECT_TRUE(saw_close);
}

TEST_F(NetTest, MessagesStayOrdered) {
  auto& listener = tcp.listen(devB->id(), 80);
  std::vector<std::uint8_t> order;
  auto server = [&]() -> sim::Task<void> {
    auto stream = co_await listener.accept();
    for (int i = 0; i < 5; ++i) {
      auto msg = co_await stream->recv();
      if (msg) order.push_back((*msg)[0]);
    }
  };
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 80);
    for (std::uint8_t i = 0; i < 5; ++i) {
      Bytes b(1 + 100 * i);  // varying sizes must not reorder delivery
      b[0] = i;
      res.value()->send(std::move(b));
    }
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();
  EXPECT_EQ(order, (std::vector<std::uint8_t>{0, 1, 2, 3, 4}));
}

TEST_F(NetTest, InFlightMessageOutlivesItsSender) {
  // The receiver closes while the server's reply is in flight, and the
  // server's stream loses its last reference with it (as a manager's
  // per-stream handler exits on peer close). The in-flight message must
  // not touch its freed sender: it still crosses the wire.
  auto& listener = tcp.listen(devB->id(), 80);
  const std::uint64_t wire_before = fab.net().total_bytes();
  std::weak_ptr<TcpStream> sender;
  bool freed_in_flight = false;
  auto server = [&]() -> sim::Task<void> {
    auto stream = co_await listener.accept();
    sender = stream;
    stream->send(Bytes(256));
  };
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 80);
    co_await sim::delay(1);  // the reply is now in the sender's stack
    res.value()->close();
    freed_in_flight = sender.expired();
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();
  EXPECT_TRUE(freed_in_flight);
  EXPECT_EQ(fab.net().total_bytes(), wire_before + 256);
}

TEST(Http, RequestRoundTrip) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/2015-03-31/functions/echo/invocations";
  req.headers["Host"] = "lambda.example.com";
  req.body = "{\"payload\":\"abc\"}";
  auto raw = req.serialize();
  auto parsed = HttpRequest::parse(raw);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().method, "POST");
  EXPECT_EQ(parsed.value().path, req.path);
  EXPECT_EQ(parsed.value().body, req.body);
  EXPECT_EQ(parsed.value().headers.at("Host"), "lambda.example.com");
  EXPECT_EQ(parsed.value().headers.at("Content-Length"), "17");
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 413;
  resp.body = "too big";
  auto raw = resp.serialize();
  auto parsed = HttpResponse::parse(raw);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status, 413);
  EXPECT_FALSE(parsed.value().ok());
  EXPECT_EQ(parsed.value().body, "too big");
}

TEST(Http, RejectsContentLengthMismatch) {
  HttpRequest req;
  req.body = "hello";
  auto raw = req.serialize();
  raw.pop_back();  // truncate body
  EXPECT_FALSE(HttpRequest::parse(raw).ok());
}

TEST(Http, RejectsGarbage) {
  Bytes junk{'n', 'o', 'p', 'e'};
  EXPECT_FALSE(HttpRequest::parse(junk).ok());
  EXPECT_FALSE(HttpResponse::parse(junk).ok());
}

TEST_F(NetTest, HttpOverTcp) {
  auto& listener = tcp.listen(devB->id(), 8080);
  auto server = [&]() -> sim::Task<void> {
    auto stream = co_await listener.accept();
    auto req = co_await http_read_request(*stream);
    EXPECT_TRUE(req.has_value());
    HttpResponse resp;
    resp.status = 200;
    resp.body = req->body;  // echo
    http_write_response(*stream, resp);
  };
  std::string echoed;
  auto client = [&]() -> sim::Task<void> {
    auto res = co_await tcp.connect(devA->id(), devB->id(), 8080);
    HttpRequest req;
    req.body = "ping-body";
    auto resp = co_await http_roundtrip(*res.value(), req);
    EXPECT_TRUE(resp.ok());
    echoed = resp.value().body;
  };
  sim::spawn(eng, server());
  sim::spawn(eng, client());
  eng.run();
  EXPECT_EQ(echoed, "ping-body");
}

}  // namespace
}  // namespace rfs::net
