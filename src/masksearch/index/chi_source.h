// ChiSource: the one holder of per-mask CHIs a session's executors see
// (docs/ARCHITECTURE.md): an IndexManager (resident CHIs, lock-free reads:
// the paper's MS and MS-II, and a live dataset's ingest CHIs) or a
// ChiCache (CHIs under a BufferPool's byte budget). Executors take a
// `ChiSource*`; null means no index, the baselines' load-and-scan.

#ifndef MASKSEARCH_INDEX_CHI_SOURCE_H_
#define MASKSEARCH_INDEX_CHI_SOURCE_H_

#include <cstddef>
#include <memory>

#include "masksearch/index/chi.h"
#include "masksearch/storage/mask.h"

namespace masksearch {

class ChiSource {
 public:
  virtual ~ChiSource() = default;

  /// \brief The CHI of mask `id`, or null. The returned pointer stays valid
  /// for as long as the caller holds it, even if the source drops the entry
  /// meanwhile; resident CHIs come back as non-owning aliases.
  virtual std::shared_ptr<const Chi> Find(MaskId id) const = 0;

  /// \brief True when a whole-mask load of `id` should retain its CHI (the
  /// source does not hold it now). Verification then reads the whole mask,
  /// because a CHI is never built from a row window.
  virtual bool Retains(MaskId id) const = 0;

  /// \brief Builds the CHI of the whole mask `mask` (mask `id`) and keeps
  /// it. First build wins; builds are deterministic, so the race is benign.
  virtual void Retain(MaskId id, const Mask& mask) = 0;

  /// \brief Number of CHIs the source holds now.
  virtual size_t size() const = 0;

  /// \brief Geometry of every CHI of the source.
  virtual const ChiConfig& config() const = 0;
};

}  // namespace masksearch

#endif  // MASKSEARCH_INDEX_CHI_SOURCE_H_
