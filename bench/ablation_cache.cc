// Ablation of the proxy-tier pushdown result cache (DESIGN.md §3g):
//  1. cold vs hot — the same pushdown GET uncached and then served from
//     the cache; the hot path must be an order of magnitude faster (the
//     storlet scan and the storage round-trips disappear);
//  2. coalescing — a thundering herd of identical queries collapses to a
//     single storlet invocation;
//  3. invalidation storm — PUTs interleaved with queries: every read is
//     correct and the cache re-fills instead of serving stale bytes;
//  4. zipfian mix — the seeded repeated-query workload
//     (workload/queries.h) through the full SQL path, reporting the hit
//     ratio the cache reaches against its theoretical zipf ceiling.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cache/cache_middleware.h"
#include "storlets/headers.h"
#include "workload/queries.h"

namespace scoop {
namespace {

Request PushdownRequest(const Schema& schema) {
  Request request = Request::Get("/gp/meters/m0000.csv");
  request.headers.Set(kRunStorletHeader, "csvstorlet");
  request.headers.Set("X-Storlet-Parameter-Schema", schema.ToSpec());
  request.headers.Set("X-Storlet-Parameter-Selection",
                      "(like date \"2015-01-01%\")");
  request.headers.Set("X-Storlet-Parameter-Projection", "vid,date,index");
  return request;
}

// Average microseconds per materialized pushdown GET over `iters` runs;
// `prepare` runs outside the timed region (e.g. Clear() to force a miss).
template <typename PrepareFn>
double AverageUs(bench::MiniDeployment& d, int iters, PrepareFn prepare) {
  double total_us = 0;
  for (int i = 0; i < iters; ++i) {
    prepare();
    Stopwatch watch;
    HttpResponse response =
        d.session->client().Send(PushdownRequest(d.schema));
    response.Materialize();
    if (!response.ok()) {
      std::fprintf(stderr, "pushdown GET failed: %d\n", response.status);
      std::abort();
    }
    total_us += watch.ElapsedSeconds() * 1e6;
  }
  return total_us / iters;
}

int64_t Metric(bench::MiniDeployment& d, const std::string& name) {
  return d.cluster->metrics().GetCounter(name)->value();
}

}  // namespace

int Run() {
  ResultCacheConfig cache_config;
  cache_config.enabled = true;
  bench::MiniDeployment d =
      bench::MakeMiniDeployment(30, 2000, 3, 64 * 1024, cache_config);

  // --- 1. cold vs hot ------------------------------------------------------
  constexpr int kIters = 30;
  double cold_us =
      AverageUs(d, kIters, [&] { d.cluster->result_cache().Clear(); });
  // Warm once, then every run is a hit.
  d.cluster->result_cache().Clear();
  AverageUs(d, 1, [] {});
  double hot_us = AverageUs(d, kIters, [] {});
  double speedup = cold_us / hot_us;

  std::printf("Ablation: proxy result cache (%d-run averages)\n\n", kIters);
  bench::TablePrinter latency({"path", "latency", "speedup"});
  latency.AddRow({"cold (storlet scan)", StrFormat("%8.1f us", cold_us),
                  "1.0x"});
  latency.AddRow({"hot (cache hit)", StrFormat("%8.1f us", hot_us),
                  StrFormat("%.1fx", speedup)});
  latency.Print();

  // --- 2. coalescing -------------------------------------------------------
  // Every herd member must get exactly the uncached bytes.
  d.cluster->result_cache().set_enabled(false);
  HttpResponse uncached = d.session->client().Send(PushdownRequest(d.schema));
  uncached.Materialize();
  if (!uncached.ok()) std::abort();
  d.cluster->result_cache().set_enabled(true);

  constexpr int kHerd = 12;
  d.cluster->result_cache().Clear();
  const int64_t invocations_before = Metric(d, "storlet.invocations");
  const int64_t coalesced_before = Metric(d, "cache.coalesced");
  const int64_t hits_before = Metric(d, "cache.hits");
  std::vector<std::thread> herd;
  herd.reserve(kHerd);
  for (int i = 0; i < kHerd; ++i) {
    herd.emplace_back([&] {
      HttpResponse response =
          d.session->client().Send(PushdownRequest(d.schema));
      response.Materialize();
      if (!response.ok()) std::abort();
      if (response.body() != uncached.body()) {
        std::fprintf(stderr, "herd member got %zu bytes, uncached %zu\n",
                     response.body().size(), uncached.body().size());
        std::abort();
      }
    });
  }
  for (auto& t : herd) t.join();
  const int64_t herd_invocations =
      Metric(d, "storlet.invocations") - invocations_before;
  const int64_t herd_waiters = (Metric(d, "cache.coalesced") -
                                coalesced_before) +
                               (Metric(d, "cache.hits") - hits_before);
  std::printf(
      "\n%d concurrent identical queries -> %lld storlet invocation(s), "
      "%lld served by coalescing/cache\n",
      kHerd, static_cast<long long>(herd_invocations),
      static_cast<long long>(herd_waiters));

  // --- 3. invalidation storm -----------------------------------------------
  // Every query is preceded by an overwrite of its object: worst case for
  // the cache — all misses, constant invalidation — but never a stale or
  // failed read.
  auto original = d.session->client().GetObject("meters", "m0000.csv");
  if (!original.ok()) std::abort();
  const int64_t fills_before = Metric(d, "cache.fills");
  double storm_us = AverageUs(d, kIters, [&] {
    Status put =
        d.session->client().PutObject("meters", "m0000.csv", *original);
    if (!put.ok()) std::abort();
  });
  const int64_t storm_invalidations = Metric(d, "cache.invalidations");
  std::printf(
      "invalidation storm: %.1f us/query (PUT before every read), "
      "%lld refills, %lld entries invalidated\n",
      storm_us, static_cast<long long>(Metric(d, "cache.fills") - fills_before),
      static_cast<long long>(storm_invalidations));

  // --- 4. zipfian repeated-query mix ---------------------------------------
  QueryMixConfig mix_config;
  mix_config.seed = 2015;
  mix_config.distinct_queries = 21;
  RepeatedQueryMix mix(mix_config);
  d.cluster->result_cache().Clear();
  const int64_t zipf_hits_before = Metric(d, "cache.hits");
  const int64_t zipf_misses_before = Metric(d, "cache.misses");
  constexpr int kDraws = 120;
  for (int i = 0; i < kDraws; ++i) {
    auto outcome = d.session->Sql(mix.Next().sql);
    if (!outcome.ok()) {
      std::fprintf(stderr, "mix query failed: %s\n",
                   outcome.status().ToString().c_str());
      std::abort();
    }
  }
  const int64_t zipf_hits = Metric(d, "cache.hits") - zipf_hits_before;
  const int64_t zipf_lookups =
      zipf_hits + Metric(d, "cache.misses") - zipf_misses_before;
  double zipf_hit_ratio =
      zipf_lookups > 0
          ? static_cast<double>(zipf_hits) / static_cast<double>(zipf_lookups)
          : 0.0;
  std::printf(
      "zipf mix (%d draws over %zu variants): hit ratio %.2f "
      "(zipf mass of the %zu-variant head: %.2f)\n",
      kDraws, mix.variants().size(), zipf_hit_ratio, mix.variants().size(),
      mix.ExpectedHitMass(mix.variants().size()));

  bench::EmitBenchJson(
      "ablation_cache", d.cluster->metrics(),
      {{"cold_us", cold_us},
       {"hot_us", hot_us},
       {"hot_speedup", speedup},
       {"coalesced_invocations", static_cast<double>(herd_invocations)},
       {"coalesced_waiters", static_cast<double>(herd_waiters)},
       {"storm_us", storm_us},
       {"zipf_hit_ratio", zipf_hit_ratio}});
  return 0;
}

}  // namespace scoop

int main() { return scoop::Run(); }
