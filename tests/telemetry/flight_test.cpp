#include "telemetry/flight.hpp"

#include <gtest/gtest.h>

namespace whisper::telemetry {
namespace {

FlightRecorder make_recorder(std::uint64_t* clock) {
  FlightRecorder fr;
  fr.set_clock([clock] { return *clock; });
  fr.set_enabled(true);
  return fr;
}

TEST(FlightRecorder, DisabledUntilClockAndEnableFlag) {
  FlightRecorder fr;
  EXPECT_FALSE(fr.enabled());
  fr.set_enabled(true);
  EXPECT_FALSE(fr.enabled());  // no clock yet
  EXPECT_EQ(fr.new_root(TraceLayer::kPpss, 1), 0u);
  fr.set_clock([] { return std::uint64_t{1}; });
  EXPECT_TRUE(fr.enabled());
  EXPECT_NE(fr.new_root(TraceLayer::kPpss, 1), 0u);
}

TEST(FlightRecorder, InvalidContextEventsAreIgnored) {
  std::uint64_t clock = 0;
  FlightRecorder fr = make_recorder(&clock);
  TraceContext none;  // trace_id == 0
  fr.wire_out(none, 1, 0, 0);
  fr.drop(none, 1, 0, "loss");
  EXPECT_TRUE(fr.events().empty());
}

TEST(FlightRecorder, ScopedContextArmsAndRestores) {
  std::uint64_t clock = 0;
  FlightRecorder fr = make_recorder(&clock);
  TraceContext ctx;
  ctx.trace_id = 7;
  ctx.hop = 2;
  {
    ScopedTraceContext guard(&fr, ctx);
    EXPECT_EQ(fr.context().trace_id, 7u);
    EXPECT_EQ(fr.context().hop, 2u);
    {
      ScopedTraceContext inner(&fr, fr.context().next_hop());
      EXPECT_EQ(fr.context().hop, 3u);
    }
    EXPECT_EQ(fr.context().hop, 2u);
  }
  EXPECT_FALSE(fr.context().valid());
  // Null and disabled recorders are tolerated.
  { ScopedTraceContext guard(nullptr, ctx); }
  FlightRecorder off;
  { ScopedTraceContext guard(&off, ctx); }
}

TEST(FlightRecorder, CapacityBoundsEventLog) {
  std::uint64_t clock = 0;
  FlightRecorder fr = make_recorder(&clock);
  fr.set_capacity(2);
  TraceContext ctx;
  ctx.trace_id = 1;
  fr.wire_out(ctx, 1, 0, 0);
  fr.wire_out(ctx, 1, 1, 0);
  fr.wire_out(ctx, 1, 2, 0);
  EXPECT_EQ(fr.events().size(), 2u);
  EXPECT_EQ(fr.dropped(), 1u);
  fr.clear();
  EXPECT_TRUE(fr.events().empty());
  EXPECT_EQ(fr.dropped(), 0u);
}

// Emit the events of one clean two-hop delivery S(1) -> M(2) -> D(3) with
// an ACK straight back, and check the assembled record decomposes exactly.
TEST(FlightAssemble, CleanDeliveryDecomposesExactly) {
  std::uint64_t clock = 0;
  FlightRecorder fr = make_recorder(&clock);
  const std::uint64_t id = fr.new_trace(TraceLayer::kWcl, 1, 0, 3);
  ASSERT_NE(id, 0u);
  TraceContext ctx;
  ctx.trace_id = id;
  ctx.layer = TraceLayer::kWcl;
  ctx.attempt = 1;

  fr.retry(id, 1, 0, 1);
  fr.crypto(ctx, 1, 0, 300, "build");  // source onion build
  ctx.seq = fr.next_wire_seq();
  fr.wire_out(ctx, 1, 300, 0);  // S -> M, 200us flight
  fr.wire_in(ctx, 2, 500);
  ctx = ctx.next_hop();
  fr.crypto(ctx, 2, 500, 100, "peel");  // mix peel
  ctx.seq = fr.next_wire_seq();
  fr.wire_out(ctx, 2, 600, 0);  // M -> D, 150us flight
  fr.wire_in(ctx, 3, 750);
  ctx = ctx.next_hop();
  ctx.seq = fr.next_wire_seq();
  fr.wire_out(ctx, 3, 750, 0);  // D -> S ack, 250us flight
  fr.wire_in(ctx, 1, 1000);
  fr.ack(id, 1, 1000, true);
  fr.end(id, 1, 1000, "delivered", 1, 1000);

  const auto records = fr.assemble();
  ASSERT_EQ(records.size(), 1u);
  const FlightRecord& rec = records[0];
  EXPECT_EQ(rec.trace_id, id);
  EXPECT_EQ(rec.layer, TraceLayer::kWcl);
  EXPECT_EQ(rec.src, 1u);
  EXPECT_EQ(rec.dst, 3u);
  EXPECT_EQ(rec.outcome, "delivered");
  EXPECT_EQ(rec.attempts, 1u);
  EXPECT_FALSE(rec.karn_ambiguous);
  ASSERT_EQ(rec.hops.size(), 3u);
  EXPECT_EQ(rec.hops[0].from, 1u);
  EXPECT_EQ(rec.hops[0].to, 2u);
  EXPECT_EQ(rec.hops[0].prop_us, 200u);
  EXPECT_EQ(rec.hops[1].prop_us, 150u);
  EXPECT_EQ(rec.hops[2].prop_us, 250u);
  EXPECT_EQ(rec.rtt_us, 1000u);
  EXPECT_EQ(rec.crypto_us, 400u);
  EXPECT_EQ(rec.prop_us, 600u);
  EXPECT_EQ(rec.queue_us, 0u);
  EXPECT_EQ(rec.retry_us, 0u);
  EXPECT_EQ(rec.decomposed_us(), rec.rtt_us);
}

// A wall-clock flight S(1) -> M(3) -> D(2) whose mix also sends D a route
// probe beside the onion. D answers the probe at once, opens the onion and
// then ACKs. The probe's slow reply must not stand in for the ACK on the
// critical path: it left D before the open ended, so following it would
// count the open's 40 us twice.
TEST(FlightAssemble, CriticalPathLeavesANodeAfterItsCrypto) {
  std::uint64_t clock = 0;
  FlightRecorder fr = make_recorder(&clock);
  const std::uint64_t id = fr.new_trace(TraceLayer::kWcl, 1, 0, 2);
  TraceContext ctx;
  ctx.trace_id = id;
  ctx.layer = TraceLayer::kWcl;
  ctx.attempt = 1;
  auto hop = [&](const TraceContext& c, std::uint64_t from, std::uint64_t to,
                 std::uint64_t sent, std::uint64_t recv) {
    TraceContext copy = c;
    copy.seq = fr.next_wire_seq();
    fr.wire_out(copy, from, sent, 0);
    fr.wire_in(copy, to, recv);
  };

  fr.retry(id, 1, 0, 1);
  fr.crypto(ctx, 1, 0, 10, "build");
  hop(ctx, 1, 3, 10, 20);
  ctx = ctx.next_hop();
  fr.crypto(ctx, 3, 20, 30, "peel");
  hop(ctx, 3, 2, 50, 55);  // the route probe
  hop(ctx, 3, 2, 51, 60);  // the onion
  ctx = ctx.next_hop();
  hop(ctx, 2, 3, 55, 105);  // the probe's reply, sent on arrival
  fr.crypto(ctx, 2, 60, 40, "open");
  hop(ctx, 2, 3, 101, 110);  // the ACK
  ctx = ctx.next_hop();
  hop(ctx, 3, 1, 111, 120);
  fr.end(id, 1, 122, "delivered", 1, 122);

  const auto records = fr.assemble();
  ASSERT_EQ(records.size(), 1u);
  const FlightRecord& rec = records[0];
  EXPECT_EQ(rec.crypto_us, 80u);
  EXPECT_EQ(rec.prop_us, 10u + 5u + 9u + 9u);  // the probe's 5 us in, the ACK out
  EXPECT_EQ(rec.proc_us, 9u);
  EXPECT_EQ(rec.decomposed_us(), rec.rtt_us);
}

// A retransmitted send: attempt 1 is lost mid-path, attempt 2 delivers.
// The decomposition covers the final attempt only; the lost attempt's time
// shows up as retry_us; karn_ambiguous flags the RTT as estimator-unsafe.
TEST(FlightAssemble, RetransmitAttributionFollowsKarn) {
  std::uint64_t clock = 0;
  FlightRecorder fr = make_recorder(&clock);
  const std::uint64_t id = fr.new_trace(TraceLayer::kWcl, 1, 0, 3);
  TraceContext ctx;
  ctx.trace_id = id;
  ctx.layer = TraceLayer::kWcl;

  ctx.attempt = 1;
  fr.retry(id, 1, 0, 1);
  ctx.seq = fr.next_wire_seq();
  fr.wire_out(ctx, 1, 0, 0);
  fr.drop(ctx, 2, 200, "loss");
  fr.timeout(id, 1, 5000, 1);

  ctx.attempt = 2;
  ctx.hop = 0;
  fr.retry(id, 1, 5000, 2);
  ctx.seq = fr.next_wire_seq();
  fr.wire_out(ctx, 1, 5000, 0);
  fr.wire_in(ctx, 3, 5400);
  ctx = ctx.next_hop();
  ctx.seq = fr.next_wire_seq();
  fr.wire_out(ctx, 3, 5400, 0);
  fr.wire_in(ctx, 1, 5800);
  fr.end(id, 1, 5800, "delivered", 2, 5800);

  const auto records = fr.assemble();
  ASSERT_EQ(records.size(), 1u);
  const FlightRecord& rec = records[0];
  EXPECT_EQ(rec.attempts, 2u);
  EXPECT_TRUE(rec.karn_ambiguous);
  EXPECT_EQ(rec.retry_us, 5000u);  // begin -> final attempt start
  EXPECT_EQ(rec.prop_us, 800u);    // final attempt only
  EXPECT_EQ(rec.decomposed_us(), rec.rtt_us);
  // The lost attempt's segment is retained with its drop reason.
  bool saw_loss = false;
  for (const FlightHop& h : rec.hops) saw_loss |= h.status == "loss";
  EXPECT_TRUE(saw_loss);
}

TEST(FlightAssemble, FaultAttributionAttachesToSegment) {
  std::uint64_t clock = 0;
  FlightRecorder fr = make_recorder(&clock);
  const std::uint64_t id = fr.new_trace(TraceLayer::kWcl, 1, 0, 2);
  TraceContext ctx;
  ctx.trace_id = id;
  ctx.attempt = 1;
  ctx.seq = fr.next_wire_seq();
  fr.wire_out(ctx, 1, 0, 250);  // fault-injected 250us extra delay
  fr.fault(ctx, 1, 0, "delay");
  fr.wire_in(ctx, 2, 700);
  fr.end(id, 1, 700, "delivered", 1, 700);

  const auto records = fr.assemble();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].faults.size(), 1u);
  EXPECT_EQ(records[0].faults[0], "delay");
  ASSERT_EQ(records[0].hops.size(), 1u);
  EXPECT_EQ(records[0].hops[0].fault, "delay");
  EXPECT_EQ(records[0].hops[0].queue_us, 250u);  // injected delay is queueing
  EXPECT_EQ(records[0].hops[0].prop_us, 450u);   // the rest is propagation
}

// Duplicated wire copies pair up by per-copy seq: both arrivals land on
// their own segment instead of corrupting one another's timestamps.
TEST(FlightAssemble, DuplicationKeepsSegmentsSeparate) {
  std::uint64_t clock = 0;
  FlightRecorder fr = make_recorder(&clock);
  const std::uint64_t id = fr.new_trace(TraceLayer::kWcl, 1, 0, 2);
  TraceContext a;
  a.trace_id = id;
  a.attempt = 1;
  a.seq = fr.next_wire_seq();
  TraceContext b = a;
  b.seq = fr.next_wire_seq();
  fr.wire_out(a, 1, 0, 0);
  fr.wire_out(b, 1, 0, 0);
  fr.wire_in(a, 2, 300);
  fr.wire_in(b, 2, 900);
  fr.end(id, 1, 300, "delivered", 1, 300);

  const auto records = fr.assemble();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].hops.size(), 2u);
  EXPECT_EQ(records[0].hops[0].prop_us, 300u);
  EXPECT_EQ(records[0].hops[1].prop_us, 900u);
}

// Events time-ordered after the trace's end (causally-downstream traffic
// stamped by the ambient context) must not pollute the record.
TEST(FlightAssemble, PostEndTrafficIsExcluded) {
  std::uint64_t clock = 0;
  FlightRecorder fr = make_recorder(&clock);
  const std::uint64_t id = fr.new_trace(TraceLayer::kWcl, 1, 0, 2);
  TraceContext ctx;
  ctx.trace_id = id;
  ctx.attempt = 1;
  ctx.seq = fr.next_wire_seq();
  fr.wire_out(ctx, 1, 0, 0);
  fr.wire_in(ctx, 2, 400);
  ctx = ctx.next_hop();
  ctx.seq = fr.next_wire_seq();
  fr.wire_out(ctx, 2, 400, 0);
  fr.wire_in(ctx, 1, 800);
  fr.end(id, 1, 800, "delivered", 1, 800);
  // Downstream echo emitted from inside the completion handler:
  ctx = ctx.next_hop();
  ctx.seq = fr.next_wire_seq();
  fr.wire_out(ctx, 1, 800, 0);
  fr.wire_in(ctx, 9, 1400);
  fr.fault(ctx, 9, 1400, "loss");

  const auto records = fr.assemble();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].hops.size(), 2u);
  EXPECT_TRUE(records[0].faults.empty());
  EXPECT_EQ(records[0].decomposed_us(), records[0].rtt_us);
}

// Marks belong to no message: a log with marks interleaved — recorded
// with no trace armed and under a message's armed context — assembles to
// exactly the records of the same log without them.
TEST(FlightAssemble, MarksDoNotChangeRecords) {
  auto record = [](bool with_marks) {
    std::uint64_t clock = 0;
    FlightRecorder fr = make_recorder(&clock);
    const std::uint64_t root = fr.new_root(TraceLayer::kPpss, 1, "group=g7000");
    if (with_marks) fr.mark(1, 0, 0, "pss.peer.quarantine");
    const std::uint64_t id = fr.new_trace(TraceLayer::kWcl, 1, root, 2);
    TraceContext ctx;
    ctx.trace_id = id;
    ctx.root = root;
    ctx.layer = TraceLayer::kWcl;
    ctx.attempt = 1;
    fr.crypto(ctx, 1, 0, 100, "build");
    ctx.seq = fr.next_wire_seq();
    fr.wire_out(ctx, 1, 100, 0);
    fr.wire_in(ctx, 2, 400);
    {
      ScopedTraceContext armed(&fr, ctx.next_hop());
      if (with_marks) fr.mark(2, 0, 400, "pss.exchange");
      if (with_marks) fr.mark(0, 400, 0, "fault.activate", "kind", "loss");
    }
    fr.end(id, 1, 400, "delivered", 1, 400);
    fr.end(root, 1, 400, "completed", 1, 400);
    return fr.events();
  };
  const std::vector<FlightEventRec> plain = record(false);
  const std::vector<FlightEventRec> marked = record(true);
  ASSERT_EQ(marked.size(), plain.size() + 3);
  std::size_t armed_marks = 0;
  for (const FlightEventRec& e : marked) {
    if (e.kind == FlightKind::kMark && e.trace != 0) ++armed_marks;
  }
  EXPECT_EQ(armed_marks, 2u);

  EXPECT_EQ(to_jsonl(assemble_flight_events(marked)), to_jsonl(assemble_flight_events(plain)));
  EXPECT_EQ(to_jsonl(canonical_flight_records(marked)),
            to_jsonl(canonical_flight_records(plain)));
  EXPECT_EQ(assemble_flight_events(marked).size(), 2u);
}

TEST(FlightJsonl, RoundTripsLosslessly) {
  std::uint64_t clock = 0;
  FlightRecorder fr = make_recorder(&clock);
  const std::uint64_t root = fr.new_root(TraceLayer::kPpss, 1, "group=g7000");
  const std::uint64_t id = fr.new_trace(TraceLayer::kWcl, 1, root, 3);
  TraceContext ctx;
  ctx.trace_id = id;
  ctx.root = root;
  ctx.layer = TraceLayer::kWcl;
  ctx.attempt = 1;
  ctx.seq = fr.next_wire_seq();
  fr.crypto(ctx, 1, 0, 120, "build");
  fr.wire_out(ctx, 1, 120, 30);
  fr.fault(ctx, 1, 120, "delay");
  fr.wire_in(ctx, 3, 500);
  fr.end(id, 1, 500, "delivered", 1, 500);
  fr.end(root, 1, 500, "completed", 1, 500);

  const auto records = fr.assemble();
  const std::string jsonl = to_jsonl(records);
  std::vector<FlightRecord> parsed;
  std::string err;
  ASSERT_TRUE(parse_flight_jsonl(jsonl, &parsed, &err)) << err;
  ASSERT_EQ(parsed.size(), records.size());
  // A re-export of the parsed records must be byte-identical (the CLI and
  // the auditor both rely on this).
  EXPECT_EQ(to_jsonl(parsed), jsonl);
  EXPECT_EQ(parsed[0].group, records[0].group);
  EXPECT_EQ(parsed[1].faults, records[1].faults);
  EXPECT_EQ(parsed[1].hops.size(), records[1].hops.size());

  // Digest is stable for identical text and sensitive to changes.
  EXPECT_EQ(flight_digest(jsonl), flight_digest(jsonl));
  EXPECT_NE(flight_digest(jsonl), flight_digest(jsonl + " "));
}

TEST(FlightJsonl, RejectsMalformedInputWithLineNumber) {
  std::vector<FlightRecord> parsed;
  std::string err;
  EXPECT_FALSE(parse_flight_jsonl("{\"trace\":1}\nnot json\n", &parsed, &err));
  EXPECT_NE(err.find("line 2"), std::string::npos);
}

// Cross-process merge: two recorders with disjoint id bases each log their
// own side of the same flight (sender: begin/wire_out/end; receiver:
// wire_in under the context parsed off the wire). Concatenating both event
// exports and assembling canonically must pair the halves — exactly what
// whisper_trace does with per-process .events.jsonl files.
TEST(FlightMerge, CrossProcessHalvesPairUp) {
  std::uint64_t clock = 0;
  FlightRecorder sender = make_recorder(&clock);
  sender.set_id_base(1ull << 48);
  FlightRecorder receiver = make_recorder(&clock);
  receiver.set_id_base(2ull << 48);

  const std::uint64_t id = sender.new_trace(TraceLayer::kWcl, 1, 0, 2);
  TraceContext ctx;
  ctx.trace_id = id;
  ctx.root = id;
  ctx.layer = TraceLayer::kWcl;
  ctx.attempt = 1;
  ctx.seq = sender.next_wire_seq();
  sender.wire_out(ctx, 1, 100, 0);
  receiver.wire_in(ctx, 2, 400);  // context arrived on the v2 frame
  receiver.mark(2, 450, 0, "fault.activate", "kind", "loss");
  sender.end(id, 1, 400, "delivered", 1, 300);

  // Round-trip both sides through the JSONL event interchange, concatenate,
  // and assemble.
  const std::string merged_text =
      to_events_jsonl(sender.events()) + to_events_jsonl(receiver.events());
  std::vector<FlightEventRec> merged;
  std::string err;
  ASSERT_TRUE(parse_flight_events_jsonl(merged_text, &merged, &err)) << err;
  // The mark survives the interchange with its kind and detail.
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged.back().kind, FlightKind::kMark);
  EXPECT_EQ(merged.back().detail, "fault.activate kind=loss");
  EXPECT_EQ(merged.back().ts, 450u);
  const auto records = canonical_flight_records(std::move(merged));
  ASSERT_EQ(records.size(), 1u);
  const FlightRecord& rec = records[0];
  EXPECT_EQ(rec.trace_id, 1u);  // canonical renumbering: ordinal, not raw id
  EXPECT_EQ(rec.outcome, "delivered");
  ASSERT_EQ(rec.hops.size(), 1u);
  EXPECT_EQ(rec.hops[0].from, 1u);
  EXPECT_EQ(rec.hops[0].to, 2u);
  EXPECT_EQ(rec.hops[0].prop_us, 300u);  // wire_in ts - wire_out ts
  EXPECT_EQ(rec.rtt_us, 300u);
}

// Each whisper_noded numbers its wire copies on its own recorder. Here the
// source S (node 1) sends hop 0 to the destination D (node 4) and to a
// bystander X (node 6); both answer at hop 1, each with its recorder's
// first seq. With the seqs namespaced per recorder the two hop-1 copies
// stay separate segments and the critical path closes through D; sharing
// one key, they would merge into one segment from X that lands at the end.
TEST(FlightMerge, RecordersNamespaceTheirWireSeqs) {
  std::uint64_t clock = 0;
  FlightRecorder s = make_recorder(&clock);
  FlightRecorder d = make_recorder(&clock);
  FlightRecorder x = make_recorder(&clock);
  for (auto [rec, node] : {std::pair{&s, 1u}, std::pair{&d, 4u}, std::pair{&x, 6u}}) {
    rec->set_id_base(std::uint64_t{node} << 48);
    rec->set_seq_namespace(node);
  }

  const std::uint64_t id = s.new_trace(TraceLayer::kWcl, 1, 0, 4);
  TraceContext to_d;
  to_d.trace_id = id;
  to_d.layer = TraceLayer::kWcl;
  to_d.attempt = 1;
  TraceContext to_x = to_d;
  to_d.seq = s.next_wire_seq();
  s.wire_out(to_d, 1, 10, 0);
  to_x.seq = s.next_wire_seq();
  s.wire_out(to_x, 1, 10, 0);
  x.wire_in(to_x, 6, 60);
  d.wire_in(to_d, 4, 110);

  TraceContext ack = to_d.next_hop();
  ack.seq = d.next_wire_seq();
  TraceContext echo = to_x.next_hop();
  echo.seq = x.next_wire_seq();
  EXPECT_EQ(ack.seq & 0x3fffff, echo.seq & 0x3fffff);  // both recorders' first seq
  EXPECT_NE(ack.seq, echo.seq);
  d.wire_out(ack, 4, 120, 0);
  x.wire_out(echo, 6, 160, 0);
  s.wire_in(echo, 1, 180);
  s.wire_in(ack, 1, 200);
  s.end(id, 1, 200, "delivered", 1, 200);

  std::vector<FlightEventRec> merged;
  for (const FlightRecorder* rec : {&s, &d, &x}) {
    merged.insert(merged.end(), rec->events().begin(), rec->events().end());
  }
  const auto records = canonical_flight_records(std::move(merged));
  ASSERT_EQ(records.size(), 1u);
  const FlightRecord& rec = records[0];
  ASSERT_EQ(rec.hops.size(), 4u);
  EXPECT_EQ(rec.hops[3].from, 6u);  // X's echo, the later hop-1 copy
  EXPECT_EQ(rec.hops[3].to, 1u);
  // Chained S -> D -> S: 100 + 80 us on the wire, 20 us in the nodes.
  EXPECT_EQ(rec.prop_us, 180u);
  EXPECT_EQ(rec.proc_us, 20u);
  EXPECT_EQ(rec.decomposed_us(), rec.rtt_us);
}

TEST(FlightRecorder, WireSeqCounterWrapsWithinItsNamespace) {
  std::uint64_t clock = 0;
  FlightRecorder fr = make_recorder(&clock);
  fr.set_seq_namespace(5);
  const std::uint32_t first = fr.next_wire_seq();
  EXPECT_EQ(first, (5u << 22) | 1);
  std::uint32_t last = first;
  for (std::uint32_t i = 2; i < (1u << 22); ++i) last = fr.next_wire_seq();
  EXPECT_EQ(last, (5u << 22) | ((1u << 22) - 1));  // 4,194,303 distinct seqs
  EXPECT_EQ(fr.next_wire_seq(), first);             // then the counter wraps to 1
}

TEST(FlightMerge, CanonicalizeRecordsRenumbersByContentOrder) {
  // Records merged from several processes carry id-base-namespaced trace
  // ids; canonicalize_flight_records maps them to content-order ordinals so
  // digests are stable across shard/process layouts.
  FlightRecord a;
  a.trace_id = (7ull << 48) + 5;
  a.root = a.trace_id;
  a.layer = TraceLayer::kWcl;
  a.src = 1;
  a.dst = 2;
  a.begin_ts = 200;
  a.outcome = "delivered";
  FlightRecord b = a;
  b.trace_id = (3ull << 48) + 9;
  b.root = b.trace_id;
  b.begin_ts = 100;

  auto canon = canonicalize_flight_records({a, b});
  ASSERT_EQ(canon.size(), 2u);
  // Content order (begin_ts first) decides ordinals, not raw ids.
  EXPECT_EQ(canon[0].begin_ts, 100u);
  EXPECT_EQ(canon[0].trace_id, 1u);
  EXPECT_EQ(canon[1].begin_ts, 200u);
  EXPECT_EQ(canon[1].trace_id, 2u);
}

}  // namespace
}  // namespace whisper::telemetry
