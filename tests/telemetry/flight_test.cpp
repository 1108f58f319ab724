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
