// Ingest-and-refresh stage: four streams through SynopsisEngine::OpenIngest
// (B = 32, eps = 0.1 — the parameters of construct call (e) — kBlock,
// queue 4096, drain_batch 256). The caller submits a wave to every stream,
// waits for DrainAll, and submits the next wave (a closed loop). After the
// last wave the round runs Finish on every stream, Store, Serve and one
// probe query; refresh time runs from the last submitted item until the
// probe is answered. Each stream has 16384 items, submitted in waves of
// 4096.

#include <unistd.h>

#include <cstdio>
#include <span>
#include <string>

#include "serve/synopsis_server.h"
#include "stages.h"
#include "stream/streaming_histogram.h"
#include "util/logging.h"

namespace perfbench {
namespace {

constexpr std::size_t kStreams = 4;
constexpr std::size_t kBuckets = 32;
constexpr double kEpsilon = 0.1;
constexpr std::size_t kQueueCapacity = 4096;
constexpr std::size_t kDrainBatch = 256;
constexpr std::size_t kItemsPerStream = 16384;
constexpr std::size_t kWave = 4096;

std::string StreamName(std::size_t s) { return "stream" + std::to_string(s); }

}  // namespace

IngestStage::IngestStage(std::uint64_t seed, StageContext& ctx)
    : engine_(probsyn::SynopsisEngine::Options{.parallelism = kLanes}),
      path_(ctx.scratch_dir + "/ingest-" + std::to_string(getpid()) +
            ".synstore") {
  for (std::size_t s = 0; s < kStreams; ++s) {
    streams_.push_back(MovieInput(kItemsPerStream, SubSeed(seed, 100 + s)));
    probsyn::StreamingHistogramBuilder builder(kBuckets, kEpsilon);
    builder.PushBatch(streams_.back().items());
    auto result = builder.Finish();
    PROBSYN_CHECK(result.ok());
    replay_.push_back(result->histogram);
  }
}

IngestStage::~IngestStage() { std::remove(path_.c_str()); }

void IngestStage::Round(StageContext& ctx, EndToEnd& out) const {
  Ledger& ledger = ctx.ledger;
  Tracer& tracer = ctx.tracer;
  probsyn::IngestOptions options;
  options.max_buckets = kBuckets;
  options.epsilon = kEpsilon;
  options.queue_capacity = kQueueCapacity;
  options.drain_batch = kDrainBatch;
  options.backpressure = probsyn::IngestBackpressure::kBlock;
  auto opened = engine_.OpenIngest(options);
  if (!ledger.CheckStatus(opened.status(), "ingest: OpenIngest")) return;
  probsyn::IngestCoordinator& coordinator = **opened;
  for (std::size_t s = 0; s < kStreams; ++s) coordinator.OpenStream();

  const auto ingest_start = Clock::now();
  Clock::time_point last_submit;
  for (std::size_t offset = 0; offset < kItemsPerStream; offset += kWave) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      Tracer::Scope scope(tracer, "stream.submit");
      const std::span<const probsyn::ValuePdf> items(streams_[s].items());
      ledger.CheckStatus(
          coordinator.SubmitBatch(s, items.subspan(offset, kWave)),
          "ingest: SubmitBatch");
    }
    last_submit = Clock::now();
    Tracer::Scope scope(tracer, "stream.drain", /*pool=*/true);
    ledger.CheckStatus(coordinator.DrainAll(), "ingest: DrainAll");
  }
  const auto ingest_end = Clock::now();

  std::vector<probsyn::NamedSynopsis> finished(kStreams);
  {
    Tracer::Scope scope(tracer, "stream.finish");
    for (std::size_t s = 0; s < kStreams; ++s) {
      auto result = coordinator.Finish(s);
      if (!ledger.CheckStatus(result.status(), "ingest: Finish")) return;
      finished[s].name = StreamName(s);
      finished[s].result.kind = probsyn::SynopsisKind::kHistogram;
      finished[s].result.histogram = std::move(result->histogram);
      finished[s].result.cost = result->cost;
    }
  }
  {
    Tracer::Scope scope(tracer, "serve.store_write");
    if (!ledger.CheckStatus(engine_.Store(path_, finished),
                            "ingest: Store")) {
      return;
    }
  }
  // The probe item depends on the round's data only, so both sides of a
  // comparison ask the same question.
  const std::size_t probe = (kItemsPerStream * 7) / 11;
  probsyn::StatusOr<double> answer = probsyn::Status::Internal("unset");
  if (tracer.enabled()) {
    // Serve() is SynopsisServer::Open, which is Store::Open + FromStore;
    // the traced run makes the two calls itself to time them apart.
    probsyn::StatusOr<probsyn::SynopsisStore> store =
        probsyn::Status::Internal("unset");
    {
      Tracer::Scope scope(tracer, "serve.store_open");
      store = probsyn::SynopsisStore::Open(path_);
    }
    if (!ledger.CheckStatus(store.status(), "ingest: store open")) return;
    probsyn::StatusOr<probsyn::SynopsisServer> server =
        probsyn::Status::Internal("unset");
    {
      Tracer::Scope scope(tracer, "serve.decode");
      server = probsyn::SynopsisServer::FromStore(std::move(store).value());
    }
    if (!ledger.CheckStatus(server.status(), "ingest: decode")) return;
    answer = server->PointEstimate(StreamName(0), probe);
  } else {
    auto server = engine_.Serve(path_);
    if (!ledger.CheckStatus(server.status(), "ingest: Serve")) return;
    answer = server->PointEstimate(StreamName(0), probe);
  }
  const auto answered = Clock::now();

  out.refresh_s.push_back(SecondsBetween(last_submit, answered));
  const auto stats = coordinator.stats();
  out.updates_per_s.push_back(static_cast<double>(stats.pushed) /
                              SecondsBetween(ingest_start, ingest_end));

  ledger.Check(answer.ok() && SameBits(*answer, replay_[0].Estimate(probe)),
               "ingest: probe answer differs from Histogram::Estimate");
  for (std::size_t s = 0; s < kStreams; ++s) {
    ledger.Check(SameHistogram(finished[s].result.histogram, replay_[s]),
                 "ingest: " + StreamName(s) +
                     " differs from the single-threaded PushBatch replay");
  }
  ledger.Check(stats.rejected + stats.shed == 0,
               "ingest: items rejected or shed");
  ledger.Check(stats.pushed == kStreams * kItemsPerStream,
               "ingest: builders consumed the wrong item count");
  if (tracer.enabled() && stats.batches > 0) {
    ctx.layer["stream.items_per_batch"].push_back(
        static_cast<double>(stats.pushed) / static_cast<double>(stats.batches));
  }
}

}  // namespace perfbench
