// Figure 6 + Table 5: speed-up of OPT and GraphChi-Tri as CPU threads
// grow, with the measured Amdahl parallel fraction p and the resulting
// upper bound ub^c = 1/((1-p) + p/c). Paper shape: OPT has p > 0.95 and
// scales nearly linearly; GraphChi-Tri saturates below 2.5x.
#include "bench_common.h"

#include "harness/amdahl.h"

using namespace opt;

int main(int argc, char** argv) {
  auto ctx = bench::MakeContext(argc, argv);
  bench::Banner("Figure 6 / Table 5",
                "Speed-up vs threads, measured parallel fraction p, and "
                "the Amdahl upper bound");

  auto specs = PaperDatasets(ctx.scale_shift);
  bench::BenchReport report_out("fig6_table5_speedup");
  for (size_t d : {2u, 3u}) {  // TWITTER, UK (the figure's datasets)
    auto store = MaterializeDataset(specs[d], ctx.get_env(), ctx.work_dir,
                                    bench::kPageSize);
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    std::printf("\n%s\n", specs[d].name.c_str());
    TablePrinter table({"threads", "OPT (s)", "OPT speedup", "OPT ub",
                        "GraphChi (s)", "GraphChi speedup", "GraphChi ub"});
    double opt_base = 0, chi_base = 0, opt_p = 0, chi_p = 0;
    for (uint32_t threads : {1u, 2u, 3u, 4u, 6u}) {
      MethodConfig config;
      config.memory_pages = PagesForBufferPercent(**store, 15.0);
      config.num_threads = threads;
      config.temp_dir = ctx.work_dir;
      auto opt = RunMethod(threads == 1 ? Method::kOptSerial : Method::kOpt,
                           store->get(), ctx.get_env(), config);
      auto chi = RunMethod(threads == 1 ? Method::kGraphChiTriSerial
                                        : Method::kGraphChiTri,
                           store->get(), ctx.get_env(), config);
      if (!opt.ok() || !chi.ok()) {
        std::fprintf(stderr, "run failed\n");
        return 1;
      }
      if (threads == 1) {
        opt_base = opt->seconds;
        chi_base = chi->seconds;
        opt_p = opt->parallel_fraction;
        chi_p = chi->parallel_fraction;
      }
      table.AddRow({TablePrinter::Fmt(uint64_t{threads}),
                    bench::Secs(opt->seconds),
                    TablePrinter::Fmt(opt_base / opt->seconds, 2),
                    TablePrinter::Fmt(AmdahlUpperBound(opt_p, threads), 2),
                    bench::Secs(chi->seconds),
                    TablePrinter::Fmt(chi_base / chi->seconds, 2),
                    TablePrinter::Fmt(AmdahlUpperBound(chi_p, threads), 2)});
      for (const MethodResult* run : {&*opt, &*chi}) {
        const bool is_opt = run == &*opt;
        bench::JsonObject row;
        row.Add("config", specs[d].name + "/" + run->method + "/t" +
                              std::to_string(threads))
            .Add("seconds", run->seconds)
            .Add("speedup", (is_opt ? opt_base : chi_base) / run->seconds, 3)
            .Add("amdahl_ub",
                 AmdahlUpperBound(is_opt ? opt_p : chi_p, threads), 3);
        report_out.AddRow(std::move(row));
      }
    }
    table.Print();
    std::printf("measured parallel fraction p: OPT=%.3f GraphChi=%.3f\n",
                opt_p, chi_p);
  }
  std::printf("Expected shape (paper Fig. 6/Table 5): OPT p>0.95, near-"
              "linear speedup; GraphChi p<0.75, saturating below 2.5x.\n"
              "(Real CPU speedups require a multi-core host; on 1-core CI "
              "only the I/O-overlap component shows.)\n");

  std::printf("\nJSON:\n%s", report_out.Render().c_str());
  return report_out.MaybeWrite(ctx) ? 0 : 1;
}
