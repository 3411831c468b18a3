#include "layers.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "src/decimator/chain.h"
#include "src/decimator/simd.h"
#include "src/fixedpoint/fixed.h"
#include "src/runtime/multichannel.h"
#include "src/runtime/session.h"
#include "src/runtime/spsc.h"
#include "src/service/wire.h"

namespace perfbench {
namespace {

using namespace dsadc;
namespace simd = dsadc::decim::simd;

constexpr std::size_t kLanes = runtime::kGroupWidth;  // 32
constexpr std::size_t kChunk = 1024;                  // frames per bank chunk
/// Wire probes replay at most this many bytes of the captured stream.
constexpr std::size_t kMaxWireBytes = 16u << 20;

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// --- service: wire format -------------------------------------------------

struct WireCapture {
  std::vector<std::uint8_t> in_stream;   ///< client->server DATA frames
  std::vector<std::uint8_t> out_stream;  ///< server->client DATA_OUT frames
  std::vector<std::span<const std::int32_t>> codes;
  std::vector<std::vector<std::int64_t>> samples;  ///< per DATA op output
  std::uint64_t n_codes = 0;
};

WireCapture capture_wire(const Plan& plan) {
  WireCapture w;
  for (std::size_t s = 0; s < plan.sessions; ++s) {
    std::uint32_t seq = 0;
    std::size_t begin = 0;
    for (std::size_t j = 0; j < plan.ops[s].size(); ++j) {
      const Op& op = plan.ops[s][j];
      const std::size_t end = plan.seg_end[s][j];
      if (op.kind == OpKind::kData &&
          w.in_stream.size() < kMaxWireBytes) {
        const auto& block = plan.blocks[op.block];
        service::Frame f;
        f.type = service::FrameType::kData;
        f.channel = static_cast<std::uint32_t>(s);
        f.seq = seq;
        f.payload = service::encode_codes(block);
        service::append_frame(w.in_stream, f);
        w.codes.emplace_back(block);
        w.n_codes += block.size();
        w.samples.emplace_back(plan.expected[s].begin() +
                                   static_cast<std::ptrdiff_t>(begin),
                               plan.expected[s].begin() +
                                   static_cast<std::ptrdiff_t>(end));
        f.type = service::FrameType::kDataOut;
        f.payload = service::encode_samples(w.samples.back());
        service::append_frame(w.out_stream, f);
      }
      if (op.kind == OpKind::kData) ++seq;
      if (op.kind == OpKind::kOpen) seq = 0;
      begin = end;
    }
  }
  return w;
}

/// Scan every frame of `stream` as the server's event loop does.
std::size_t scan_all(const std::vector<std::uint8_t>& stream) {
  std::size_t off = 0, frames = 0;
  while (off < stream.size()) {
    service::FrameView v;
    std::size_t used = 0;
    if (service::scan_frame(stream.data() + off, stream.size() - off, &v,
                            &used, nullptr) != service::ScanResult::kFrame) {
      break;
    }
    off += used;
    ++frames;
  }
  return frames;
}

void wire_suite(const Plan& own, const Plan& churn, double seconds,
                Report& report, double* wire_ns_per_code, bool* ok) {
  const WireCapture w = capture_wire(own);
  const double budget = seconds / 6.0;
  const double in_bytes = static_cast<double>(w.in_stream.size());
  const double codes = static_cast<double>(w.n_codes);

  // scan_frame (header checks + CRC) over the client->server stream.
  std::size_t frames = 0;
  const auto scan = repeat_for("service.wire.scan_frame", budget, 3, [&] {
    const std::int64_t t0 = now_ns();
    frames = scan_all(w.in_stream);
    return secs(now_ns() - t0);
  });
  *ok = *ok && frames == w.codes.size();
  report.set("service.wire.scan_gbps", in_bytes / median(scan) * 1e-9,
             "GB/s");

  const auto crc = repeat_for("service.wire.crc32", budget, 3, [&] {
    const std::int64_t t0 = now_ns();
    keep(service::crc32(w.in_stream.data(), w.in_stream.size()));
    return secs(now_ns() - t0);
  });
  report.set("service.wire.crc_gbps", in_bytes / median(crc) * 1e-9, "GB/s");

  // Codecs: the server's decode_codes of each DATA payload and
  // encode_samples of each output block.
  std::vector<std::int32_t> decoded;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const auto& c : w.codes) payloads.push_back(service::encode_codes(c));
  double codec_bytes = 0.0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    codec_bytes += static_cast<double>(payloads[i].size() +
                                       w.samples[i].size() * 8);
  }
  const auto codec = repeat_for("service.wire.codecs", budget, 3, [&] {
    const std::int64_t t0 = now_ns();
    for (const auto& p : payloads) {
      if (!service::decode_codes(p, &decoded)) *ok = false;
    }
    for (const auto& s : w.samples) keep(service::encode_samples(s));
    return secs(now_ns() - t0);
  });
  report.set("service.wire.codec_gbps", codec_bytes / median(codec) * 1e-9,
             "GB/s");

  // seal_frame: header + CRC over each DATA_OUT payload.
  std::vector<service::OutFrame> outs(w.samples.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    outs[i].payload = service::encode_samples(w.samples[i]);
  }
  const auto seal = repeat_for("service.wire.seal_frame", budget, 3, [&] {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < outs.size(); ++i) {
      service::seal_frame(outs[i], service::FrameType::kDataOut, 0,
                          static_cast<std::uint32_t>(i), 0);
    }
    return secs(now_ns() - t0);
  });
  report.set("service.wire.seal_ns_per_frame",
             median(seal) * 1e9 / static_cast<double>(outs.size()), "ns");

  // Client side: encode each DATA frame, parse each DATA_OUT frame.
  const auto client = repeat_for("service.wire.client", budget, 3, [&] {
    const std::int64_t t0 = now_ns();
    std::vector<std::uint8_t> buf;
    for (std::size_t i = 0; i < w.codes.size(); ++i) {
      service::Frame f;
      f.payload = service::encode_codes(w.codes[i]);
      buf.clear();
      service::append_frame(buf, f);
      keep(buf);
    }
    service::FrameParser parser;
    parser.feed(w.out_stream.data(), w.out_stream.size());
    service::Frame f;
    std::vector<std::int64_t> samples;
    while (parser.next(&f) == service::FrameParser::Result::kFrame) {
      if (!service::decode_samples(f.payload, &samples)) *ok = false;
    }
    return secs(now_ns() - t0);
  });
  // One code's round trip through every wire-format step.
  *wire_ns_per_code =
      (median(scan) + median(codec) + median(seal) + median(client)) * 1e9 /
      codes;
  report.set("service.wire.ns_per_code", *wire_ns_per_code, "ns");
  report.set("service.wire.client_ns_per_code", median(client) * 1e9 / codes,
             "ns");

  // decode_chain_config on the CFG1 blob pool.
  std::vector<std::vector<std::uint8_t>> blobs;
  for (const auto& c : churn.configs) {
    blobs.push_back(service::encode_chain_config(*c));
  }
  const auto cfg = repeat_for("service.wire.decode_chain_config", budget / 2, 20, [&] {
    const std::int64_t t0 = now_ns();
    for (const auto& b : blobs) {
      decim::ChainConfig out;
      if (!service::decode_chain_config(b, &out)) *ok = false;
      keep(out);
    }
    return secs(now_ns() - t0) / static_cast<double>(blobs.size());
  });
  report.set("service.wire.decode_config_us", median(cfg) * 1e6, "us");
}

// --- runtime: session replay ----------------------------------------------

struct SessionReplay {
  double ns_per_code = 0.0;
  std::vector<double> done_us;
  bool exact = true;
};

/// The session id the server gives session `s` of `plan` (connection ids
/// start at 1; key = connection << 32 | channel).
std::uint64_t session_id(const Plan& plan, std::uint32_t s) {
  return ((static_cast<std::uint64_t>(s % plan.conns) + 1) << 32) |
         (s / plan.conns);
}

/// The plan's closed-loop job stream through SessionRuntime::submit, no
/// sockets: same shards, workers, caps and session ids as the server.
SessionReplay replay_sessions(const Plan& plan) {
  runtime::SessionRuntime::Options o;
  o.shards = plan.shards;
  o.workers = 2;
  o.queue_capacity = 64;
  o.policy = runtime::SessionRuntime::Overload::kBlock;
  o.batch_linger_us = 20000;
  runtime::SessionRuntime rt(o);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::uint32_t> ready;
  std::size_t outstanding = 0;
  std::vector<std::vector<std::int64_t>> got(plan.sessions);
  SessionReplay out;

  const auto submit = [&](std::uint32_t s, const Op& op) {
    runtime::SessionJob job;
    job.session = session_id(plan, s);
    switch (op.kind) {
      case OpKind::kOpen:
        job.op = runtime::SessionOp::kOpen;
        job.config = plan.configs[op.cfg];
        job.lockstep = plan.lockstep;
        break;
      case OpKind::kConfig:
        job.op = runtime::SessionOp::kReconfigure;
        job.config = plan.configs[op.cfg];
        break;
      case OpKind::kData:
        job.op = runtime::SessionOp::kData;
        job.codes = plan.blocks[op.block];
        break;
      case OpKind::kDrain:
        job.op = runtime::SessionOp::kDrain;
        break;
      case OpKind::kClose:
        job.op = runtime::SessionOp::kClose;
        break;
    }
    const std::int64_t t0 = now_ns();
    job.done = [&, s, t0](runtime::SessionResult r) {
      const std::int64_t t1 = now_ns();
      std::lock_guard<std::mutex> lock(mu);
      if (r.status != runtime::SessionStatus::kOk) out.exact = false;
      got[s].insert(got[s].end(), r.samples.begin(), r.samples.end());
      out.done_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      --outstanding;
      ready.push_back(s);
      cv.notify_all();
    };
    {
      std::lock_guard<std::mutex> lock(mu);
      ++outstanding;
    }
    if (!rt.submit(std::move(job))) {
      std::lock_guard<std::mutex> lock(mu);
      --outstanding;
      out.exact = false;
    }
  };
  const auto wait_idle = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  };

  for (std::uint32_t s = 0; s < plan.sessions; ++s) submit(s, plan.ops[s][0]);
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(mu);
    ready.clear();
    out.done_us.clear();
    for (std::size_t w = 0; w < kWindow; ++w) {
      for (std::uint32_t s = 0; s < plan.sessions; ++s) ready.push_back(s);
    }
  }
  std::vector<std::size_t> cursor(plan.sessions, 1);
  std::size_t remaining = 0;
  for (const auto& ops : plan.ops) remaining += ops.size() - 1;
  const std::int64_t c0 = cpu_ns();
  while (remaining > 0) {
    std::uint32_t s = 0;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !ready.empty(); });
      s = ready.front();
      ready.pop_front();
    }
    if (cursor[s] >= plan.ops[s].size()) continue;
    submit(s, plan.ops[s][cursor[s]++]);
    --remaining;
  }
  wait_idle();
  out.ns_per_code = static_cast<double>(cpu_ns() - c0) /
                    static_cast<double>(plan.data_codes);
  for (std::uint32_t s = 0; s < plan.sessions; ++s) {
    runtime::SessionJob close;
    close.session = session_id(plan, s);
    close.op = runtime::SessionOp::kClose;
    rt.submit(std::move(close));
    if (got[s] != plan.expected[s]) out.exact = false;
  }
  rt.stop();
  return out;
}

double ring_ns(std::size_t threads, std::size_t n) {
  runtime::MpmcRing<runtime::SessionJob> ring(64);
  const std::int64_t t0 = now_ns();
  if (threads == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      runtime::SessionJob j;
      j.session = i;
      ring.push(std::move(j));
      runtime::SessionJob out;
      ring.pop(out);
      keep(out);
    }
  } else {
    std::thread consumer([&] {
      runtime::SessionJob out;
      for (std::size_t i = 0; i < n; ++i) ring.pop(out);
      keep(out);
    });
    for (std::size_t i = 0; i < n; ++i) {
      runtime::SessionJob j;
      j.session = i;
      ring.push(std::move(j));
    }
    consumer.join();
  }
  return static_cast<double>(now_ns() - t0) / static_cast<double>(n);
}

/// 32 lanes x `frames` of interleaved codes drawn from the plan's blocks.
std::vector<std::int64_t> interleaved_codes(const Plan& plan,
                                            std::size_t frames) {
  std::vector<std::int64_t> out(frames * kLanes);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    const auto& b = plan.blocks[lane % plan.blocks.size()];
    for (std::size_t f = 0; f < frames; ++f) {
      out[f * kLanes + lane] = b[f % b.size()];
    }
  }
  return out;
}

// --- decimator: bank stages per SIMD tier ---------------------------------

constexpr const char* kStages[] = {"cic1", "cic2", "cic3", "renorm",
                                   "hbf",  "scaler", "eq"};
constexpr std::size_t kNumStages = 7;

struct StageTimes {
  std::array<double, kNumStages> s{};      ///< seconds per stage
  std::array<double, kNumStages> bytes{};  ///< bytes in + out per stage
  double codes = 0.0;                      ///< chain input codes
};

StageTimes time_stages(const decim::ChainConfig& cfg,
                       const std::vector<std::int64_t>& input,
                       double seconds) {
  std::vector<decim::CicDecimatorBank> cic;
  for (const auto& spec : cfg.cic_stages) cic.emplace_back(spec, kLanes);
  int gain = 0;
  for (const auto& spec : cfg.cic_stages) {
    gain += spec.order *
            static_cast<int>(std::lround(std::log2(spec.decimation)));
  }
  const decim::soa::Requant renorm(gain, cfg.hbf_in_format,
                                   fx::Rounding::kRoundNearest,
                                   fx::event_counters("chain_hbf_in"));
  decim::SaramakiHbfBank hbf(cfg.hbf, kLanes, cfg.hbf_in_format,
                             cfg.hbf_out_format, cfg.hbf_coeff_frac_bits);
  const decim::ScalingStage scaler(cfg.scale, cfg.hbf_out_format,
                                   cfg.scaler_out_format, 14, 8);
  decim::FirDecimatorBank eq(
      decim::FixedTaps::from_real(cfg.equalizer_taps, cfg.equalizer_frac_bits),
      1, kLanes, cfg.scaler_out_format, cfg.output_format);

  StageTimes t;
  std::vector<std::int64_t> data;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t rep = 0; rep < 8 || now_ns() < end; ++rep) {
    for (std::size_t base = 0; base < input.size(); base += kChunk * kLanes) {
      data.assign(input.begin() + static_cast<std::ptrdiff_t>(base),
                  input.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(input.size(),
                                               base + kChunk * kLanes)));
      t.codes += static_cast<double>(data.size());
      const auto stage = [&](std::size_t k, const auto& f) {
        const double in = static_cast<double>(data.size());
        const std::int64_t t0 = now_ns();
        f();
        t.s[k] += secs(now_ns() - t0);
        t.bytes[k] += (in + static_cast<double>(data.size())) * 8.0;
      };
      for (std::size_t i = 0; i < cic.size() && i < 3; ++i) {
        stage(i, [&] { cic[i].process_inplace(data); });
      }
      stage(3, [&] {
        decim::soa::RequantTally tally;
        decim::simd::kernels().requant_rows(data.data(), data.size(), renorm,
                                            tally);
        tally.flush(renorm);
      });
      stage(4, [&] { hbf.process_inplace(data); });
      stage(5, [&] { scaler.process_inplace(data); });
      stage(6, [&] { eq.process_inplace(data); });
      keep(data);
    }
  }
  return t;
}

/// Read-modify-write bandwidth over a buffer the size of one bank chunk.
double stream_gbps(double seconds) {
  std::vector<std::uint64_t> buf(kChunk * kLanes, 1);  // unsigned: wraps
  const auto t = repeat_for("decimator.stream", seconds, 50, [&] {
    const std::int64_t t0 = now_ns();
    std::uint64_t* p = buf.data();
    for (std::size_t i = 0; i < buf.size(); ++i) p[i] = p[i] * 3 + 1;
    keep(buf);
    return secs(now_ns() - t0);
  });
  return static_cast<double>(buf.size() * 16) / median(t) * 1e-9;
}

}  // namespace

void layer_suite(const LayerInputs& in, double seconds, Report& report) {
  bool ok = true;
  const Plan& lock = *in.lockstep;
  const Plan& churn = *in.churn;
  const decim::ChainConfig& cfg = *lock.configs[0];

  // service.wire: 20% of the budget.
  double wire_ns = 0.0;
  wire_suite(*in.own, churn, seconds * 0.2, report, &wire_ns, &ok);

  // runtime.session: both job streams without sockets.
  const SessionReplay rl = replay_sessions(lock);
  const SessionReplay rc = replay_sessions(churn);
  ok = ok && rl.exact && rc.exact;
  report.set("runtime.session.lockstep_ns_per_code", rl.ns_per_code, "ns");
  report.set("runtime.session.scalar_ns_per_code", rc.ns_per_code, "ns");
  report.set("runtime.session.done_p50_us", quantile(rc.done_us, 0.5), "us");
  report.set("runtime.session.done_p99_us", quantile(rc.done_us, 0.99), "us");

  // runtime.ring: MpmcRing<SessionJob> push+pop at 1 and 2 threads.
  const double ring1 = median(repeat_for("runtime.ring.1t", 0.05 * seconds, 3,
                                         [] { return ring_ns(1, 100000); }));
  const double ring2 = median(repeat_for("runtime.ring.2t", 0.05 * seconds, 3,
                                         [] { return ring_ns(2, 100000); }));
  report.set("runtime.ring.push_pop_ns_1t", ring1, "ns");
  report.set("runtime.ring.push_pop_ns_2t", ring2, "ns");

  // runtime.bank / transpose: ChainBank(cfg, 32) in 1024-frame chunks vs
  // MultiChannelRuntime::process_into on the same blocks.
  const auto inter = interleaved_codes(lock, kChunk);
  runtime::ChainBank bank(cfg, kLanes);
  std::vector<std::int64_t> data;
  const auto bank_t = repeat_for("runtime.bank", 0.08 * seconds, 20, [&] {
    data = inter;
    const std::int64_t t0 = now_ns();
    bank.process_inplace(data);
    return secs(now_ns() - t0);
  });
  const double codes = static_cast<double>(kChunk * kLanes);
  const double bank_ns = median(bank_t) * 1e9 / codes;
  report.set("runtime.bank.ns_per_code", bank_ns, "ns");
  std::vector<std::vector<std::int32_t>> rows(kLanes);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    rows[lane].resize(kChunk);
    for (std::size_t f = 0; f < kChunk; ++f) {
      rows[lane][f] = static_cast<std::int32_t>(inter[f * kLanes + lane]);
    }
  }
  runtime::MultiChannelRuntime mcr(cfg, kLanes);
  std::vector<std::vector<std::int64_t>> outs;
  const auto mcr_t = repeat_for("runtime.multichannel", 0.08 * seconds, 20, [&] {
    const std::int64_t t0 = now_ns();
    mcr.process_into(rows, outs);
    return secs(now_ns() - t0);
  });
  report.set("runtime.transpose_ns_per_code",
             median(mcr_t) * 1e9 / codes - bank_ns, "ns");

  // runtime.bank1_vs_scalar: ChainBank(cfg, 1) vs DecimationChain::process
  // on the same 4096-code block, in codes/s. Each sample times both back
  // to back, so host drift cancels in the ratio.
  {
    const auto& b = lock.blocks[0];
    std::vector<std::int32_t> block(4096);
    for (std::size_t i = 0; i < block.size(); ++i) block[i] = b[i % b.size()];
    runtime::ChainBank bank1(cfg, 1);
    decim::DecimationChain chain(cfg);
    std::vector<std::int64_t> buf;
    const auto ratio = repeat_for("runtime.bank1_vs_scalar", 0.1 * seconds, 20,
                                  [&] {
      buf.assign(block.begin(), block.end());
      const std::int64_t t0 = now_ns();
      bank1.process_inplace(buf);
      const std::int64_t t1 = now_ns();
      keep(chain.process(block));
      const std::int64_t t2 = now_ns();
      return secs(t2 - t1) / secs(t1 - t0);
    });
    report.set("runtime.bank1_vs_scalar", median(ratio), "ratio");
  }

  // decimator.<stage>.<tier>: bank stages at 32 lanes, per chain input
  // code. A tier the host lacks runs the widest supported tier below it
  // (the DSADC_SIMD fallback rule).
  const auto input = interleaved_codes(lock, 8 * kChunk);
  const simd::Tier best = simd::best_tier();
  const double stream = stream_gbps(0.03 * seconds);
  report.set("decimator.stream_gbps", stream, "GB/s");
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    for (int t = static_cast<int>(tier); t >= 0; --t) {
      if (simd::set_active_tier(static_cast<simd::Tier>(t))) break;
    }
    const StageTimes st = time_stages(cfg, input, 0.07 * seconds);
    const std::string tn = simd::tier_name(tier);
    for (std::size_t k = 0; k < kNumStages; ++k) {
      const std::string base = std::string("decimator.") + kStages[k] + ".";
      const double gbps = st.bytes[k] / st.s[k] * 1e-9;
      report.set(base + tn + ".ns_per_code", st.s[k] * 1e9 / st.codes, "ns");
      report.set(base + tn + ".gbps", gbps, "GB/s");
      if (tier == best) report.set(base + "roofline_frac", gbps / stream, "frac");
    }
  }
  simd::set_active_tier(best);

  // decimator.chain: the scalar chain at serve_churn's block lengths.
  {
    decim::DecimationChain chain(*churn.configs[0]);
    double n = 0.0;
    const auto t = repeat_for("decimator.chain_churn_blocks", 0.05 * seconds, 2, [&] {
      const std::int64_t t0 = now_ns();
      n = 0.0;
      for (const auto& b : churn.blocks) {
        keep(chain.process(b));
        n += static_cast<double>(b.size());
      }
      return secs(now_ns() - t0);
    });
    report.set("decimator.chain.ns_per_code", median(t) * 1e9 / n, "ns");
  }

  // Serving ledger: the named layers' ns/code against wire-to-wire CPU.
  double kernel_ns = 0.0;
  for (const auto& m : report.values) {
    if (in.own->lockstep && (m.name == "runtime.bank.ns_per_code" ||
                             m.name == "runtime.transpose_ns_per_code")) {
      kernel_ns += m.value;
    }
    if (!in.own->lockstep && m.name == "decimator.chain.ns_per_code") {
      kernel_ns += m.value;
    }
  }
  const double per_job = static_cast<double>(in.own->data_codes) /
                         static_cast<double>(in.own->data_ops);
  const double ring_per_code = ring2 / per_job;
  const double runtime_ns =
      in.own->lockstep ? rl.ns_per_code : rc.ns_per_code;
  report.set("service.io_ns_per_code", in.serve_cpu_ns_per_code - runtime_ns,
             "ns");
  report.set("ledger.serve_closure_frac",
             (wire_ns + ring_per_code + kernel_ns) / in.serve_cpu_ns_per_code,
             "frac");
  report.attempted += 1;
  if (!ok) report.failed += 1;
}

}  // namespace perfbench
