// Table II: CPU time per PPSS cycle spent in AES vs RSA, by node class.
//
// Paper setup: 1,000 nodes on the cluster, 1-minute PPSS cycle, Pi=3,
// 5 entries per exchanged view, 1 KB public keys (~20 KB view exchanges).
// Reported: average CPU microseconds/milliseconds per node per cycle.
// Expected shape: RSA dominates AES by orders of magnitude; P-nodes spend
// ~2x the total CPU of N-nodes and ~4x the RSA-decrypt time, because the
// WCL construction makes P-nodes act as mixes far more often.
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace whisper;
  const std::size_t nodes = bench::arg_size(argc, argv, "nodes", 250);
  const std::size_t groups = bench::arg_size(argc, argv, "groups", 8);

  bench::banner("Table II - CPU per PPSS cycle: AES vs RSA, N- vs P-nodes (n=" +
                    std::to_string(nodes) + ")",
                "RSA >> AES; P-nodes ~2x total CPU of N-nodes and ~4x the RSA "
                "decrypt time (mix role)");

  ScaleConfig cfg;
  cfg.initial_nodes = nodes;
  cfg.natted_fraction = 0.7;
  cfg.latency = "cluster";
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.seed = 800;
  ScaleTestbed tb(cfg);
  Rng rng(801);

  tb.run_for(5 * net::kMinute);
  // Group setup: leaders on P-nodes, every node subscribes to one group.
  bench::found_groups(tb, groups, 8000, 900, rng);
  tb.run_for(5 * net::kMinute);

  // Measurement window: reset meters, run whole PPSS cycles.
  for (WhisperNode* node : tb.alive_nodes()) node->cpu().reset();
  const std::size_t cycles = 10;
  tb.run_for(cycles * cfg.node.ppss.cycle);

  struct Acc {
    double aes_us = 0, rsa_enc_us = 0, rsa_dec_us = 0, rsa_sign_us = 0;
    std::size_t count = 0;
  } n_acc, p_acc;
  for (WhisperNode* node : tb.alive_nodes()) {
    Acc& acc = node->is_public() ? p_acc : n_acc;
    acc.aes_us += static_cast<double>(node->cpu().spent(net::CpuCategory::kAes));
    acc.rsa_enc_us += static_cast<double>(node->cpu().spent(net::CpuCategory::kRsaEncrypt));
    acc.rsa_dec_us += static_cast<double>(node->cpu().spent(net::CpuCategory::kRsaDecrypt));
    acc.rsa_sign_us += static_cast<double>(node->cpu().spent(net::CpuCategory::kRsaSign));
    ++acc.count;
  }

  auto per_cycle = [&](double total_us, std::size_t count) {
    return count == 0 ? 0.0 : total_us / static_cast<double>(count) / static_cast<double>(cycles);
  };
  const double cycle_us = static_cast<double>(cfg.node.ppss.cycle);

  Table t({"", "AES", "RSA (enc)", "RSA (dec)", "RSA (sig)", "Total", "% of cycle"});
  auto add = [&](const char* name, const Acc& acc) {
    const double aes = per_cycle(acc.aes_us, acc.count);
    const double enc = per_cycle(acc.rsa_enc_us, acc.count);
    const double dec = per_cycle(acc.rsa_dec_us, acc.count);
    const double sig = per_cycle(acc.rsa_sign_us, acc.count);
    const double total = aes + enc + dec + sig;
    t.add_row({name, Table::num(aes, 1) + " us", Table::num(enc / 1000.0, 3) + " ms",
               Table::num(dec / 1000.0, 3) + " ms", Table::num(sig / 1000.0, 3) + " ms",
               Table::num(total / 1000.0, 3) + " ms",
               Table::num(total / cycle_us * 100.0, 4) + "%"});
  };
  add("N-node", n_acc);
  add("P-node", p_acc);
  std::printf("%s", t.render().c_str());

  const double n_total = per_cycle(n_acc.aes_us + n_acc.rsa_enc_us + n_acc.rsa_dec_us +
                                       n_acc.rsa_sign_us, n_acc.count);
  const double p_total = per_cycle(p_acc.aes_us + p_acc.rsa_enc_us + p_acc.rsa_dec_us +
                                       p_acc.rsa_sign_us, p_acc.count);
  const double n_dec = per_cycle(n_acc.rsa_dec_us, n_acc.count);
  const double p_dec = per_cycle(p_acc.rsa_dec_us, p_acc.count);
  std::printf("\nshape-check:\n");
  std::printf("  P/N total CPU ratio = %.2fx (paper: 2.13x)\n",
              n_total > 0 ? p_total / n_total : 0.0);
  std::printf("  P/N RSA-decrypt ratio = %.2fx (paper: 4.12x, P-nodes act as mixes)\n",
              n_dec > 0 ? p_dec / n_dec : 0.0);
  std::printf("  (absolute values differ from the paper: different hardware and key size)\n");
  return 0;
}
