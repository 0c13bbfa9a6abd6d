#ifndef OPENEA_MATH_SHARDED_TABLE_H_
#define OPENEA_MATH_SHARDED_TABLE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/math/aligned.h"
#include "src/math/embedding_table.h"
#include "src/math/matrix.h"

namespace openea::math {

/// Out-of-core embedding tables (DESIGN.md, "Out-of-core scale").
///
/// A sharded table stores a (num_rows x dim) float table on disk as a
/// sequence of fixed-size row *banks* that can be memory-mapped and released
/// independently, so eval and serving at 100K+ entities never hold the full
/// table in RAM. Rows are padded to `row_stride` floats (dim rounded up to a
/// multiple of 16) and every bank payload starts at a 64-byte-aligned file
/// offset, so a mapped bank satisfies the same alignment contract as
/// in-memory Matrix/EmbeddingTable storage (src/math/kernels.h) and the
/// shared similarity cell kernel can scan it directly via its `ldb` stride
/// parameter.
///
/// On-disk layout (all integers little-endian; version 1):
///
///   [8]  magic "OEASHRD\n"
///   [4]  format version (u32)
///   [4]  flags (u32; bit 0 = table carries AdaGrad accumulators)
///   [8]  num_rows (u64)
///   [8]  dim (u64)
///   [8]  row_stride in floats (u64; dim rounded up to a multiple of 16)
///   [8]  rows_per_bank (u64)
///   [8]  num_banks (u64)
///   [8]  data_begin (u64; 64-byte-aligned offset of bank 0)
///   then per bank: [8] offset (u64)  [8] payload bytes (u64)
///                  [4] CRC-32 of the value region (u32)
///                  [4] CRC-32 of the AdaGrad region (u32; 0 when absent)
///   [4]  CRC-32 of everything above (u32)
///   zero padding to data_begin, then the bank payloads.
///
/// A bank payload is `rows_in_bank * row_stride` value floats followed (when
/// flags bit 0 is set) by the same number of AdaGrad floats; padding floats
/// are zero. All size fields are u64 end to end, so multi-GiB tables neither
/// truncate nor wrap (the PR-4 envelope kept u32-era limits until the same
/// widening).
///
/// Files are written to `<path>.tmp` and renamed into place. Fault points
/// honoured by the writer (src/common/fault.h):
///   "shard/enospc"      simulate an out-of-space failure on a bank flush
///   "shard/short_write" tear one bank: half its payload reaches the final
///                       file (models power loss without fsync); the
///                       directory CRC then fails at map time
///   "shard/after_write" fires after the final rename — the canonical kill
///                       point for mid-shard crash/resume tests

/// Rounds `dim` up to the padded on-disk row stride (multiple of 16 floats,
/// i.e. 64 bytes).
size_t ShardedRowStride(size_t dim);

struct ShardedTableOptions {
  size_t rows_per_bank = 4096;
  bool with_adagrad = false;
};

/// Streaming writer: rows are appended in order and flushed bank by bank, so
/// peak writer memory is one bank regardless of num_rows. The row count must
/// be known up front (header + bank directory are reserved, then patched in
/// Finalize).
class ShardedTableWriter {
 public:
  static StatusOr<std::unique_ptr<ShardedTableWriter>> Create(
      const std::string& path, size_t num_rows, size_t dim,
      const ShardedTableOptions& options = {});

  ~ShardedTableWriter();
  ShardedTableWriter(const ShardedTableWriter&) = delete;
  ShardedTableWriter& operator=(const ShardedTableWriter&) = delete;

  /// Appends one row. `values` must hold exactly `dim` floats; `adagrad`
  /// must hold `dim` floats when the table was created with_adagrad and be
  /// empty otherwise.
  Status AppendRow(std::span<const float> values,
                   std::span<const float> adagrad = {});

  /// Flushes the final bank, writes the bank directory + header, and renames
  /// the temp file into place. Must be called after exactly num_rows
  /// AppendRow calls.
  Status Finalize();

 private:
  ShardedTableWriter() = default;
  Status FlushBank();

  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
  size_t num_rows_ = 0;
  size_t dim_ = 0;
  size_t row_stride_ = 0;
  size_t rows_per_bank_ = 0;
  size_t num_banks_ = 0;
  bool with_adagrad_ = false;
  bool finalized_ = false;

  size_t rows_appended_ = 0;
  size_t rows_in_bank_ = 0;
  uint64_t next_offset_ = 0;  // 64-byte-aligned offset of the next bank.
  AlignedVector values_buf_;
  AlignedVector adagrad_buf_;
  struct BankRecord {
    uint64_t offset = 0;
    uint64_t bytes = 0;
    uint32_t value_crc = 0;
    uint32_t adagrad_crc = 0;
  };
  std::vector<BankRecord> directory_;
};

/// Convenience one-shot writers.
Status WriteShardedTable(const std::string& path, const Matrix& values,
                         const ShardedTableOptions& options = {});
Status WriteShardedTable(const std::string& path, const EmbeddingTable& table,
                         size_t rows_per_bank = 4096);

/// Read side: memory-maps banks on demand and releases them bank by bank
/// under an optional residency budget. Thread-safe; all mapping state is
/// internally synchronized so concurrent ParallelFor scans and the prefetch
/// thread can share one table.
class ShardedEmbeddingTable {
 public:
  struct OpenOptions {
    /// Verify each bank's CRC-32 the first time it is mapped. Torn or
    /// corrupted banks then surface as a Status error at map time instead of
    /// silently wrong similarity scores.
    bool verify_crc = true;
    /// Maximum banks kept mapped at once (0 = unlimited). When exceeded, the
    /// least-recently-used unpinned bank is unmapped. Pinned banks are never
    /// evicted, so the budget is soft while every bank is pinned.
    size_t max_resident_banks = 0;
  };

  static StatusOr<std::shared_ptr<ShardedEmbeddingTable>> Open(
      const std::string& path, const OpenOptions& options);
  static StatusOr<std::shared_ptr<ShardedEmbeddingTable>> Open(
      const std::string& path) {
    return Open(path, OpenOptions());
  }

  ~ShardedEmbeddingTable();
  ShardedEmbeddingTable(const ShardedEmbeddingTable&) = delete;
  ShardedEmbeddingTable& operator=(const ShardedEmbeddingTable&) = delete;

  size_t num_rows() const { return num_rows_; }
  size_t dim() const { return dim_; }
  /// Distance in floats between consecutive rows of a mapped bank (the `ldb`
  /// to pass to detail::MetricRowBlock).
  size_t row_stride() const { return row_stride_; }
  size_t rows_per_bank() const { return rows_per_bank_; }
  size_t num_banks() const { return num_banks_; }
  bool has_adagrad() const { return has_adagrad_; }
  const std::string& path() const { return path_; }

  /// FNV-1a over the header fields and every bank CRC: a stable content
  /// fingerprint without reading the payload (used by align-serve).
  uint64_t ContentFingerprint() const;

  size_t BankOfRow(size_t row) const { return row / rows_per_bank_; }
  size_t BankFirstRow(size_t bank) const { return bank * rows_per_bank_; }
  size_t BankRows(size_t bank) const;

  /// RAII pin on one mapped bank. While any lease on a bank is live the
  /// mapping cannot be evicted, so the pointers below stay valid for the
  /// lease lifetime (the mmap lifetime rule: never cache a bank pointer past
  /// its lease).
  class BankLease {
   public:
    BankLease() = default;
    /// An unpinned bank over rows that outlive it (RowBanks' view of an
    /// in-RAM Matrix); releasing it touches no table.
    BankLease(const float* values, size_t first_row, size_t rows,
              size_t stride)
        : values_(values), first_row_(first_row), rows_(rows),
          stride_(stride) {}
    BankLease(BankLease&& other) noexcept { *this = std::move(other); }
    BankLease& operator=(BankLease&& other) noexcept;
    BankLease(const BankLease&) = delete;
    BankLease& operator=(const BankLease&) = delete;
    ~BankLease();

    /// First row's values; rows follow at row_stride() float intervals.
    const float* values() const { return values_; }
    /// First row's AdaGrad accumulators (nullptr when !has_adagrad()).
    const float* adagrad() const { return adagrad_; }
    size_t first_row() const { return first_row_; }
    size_t rows() const { return rows_; }
    size_t stride() const { return stride_; }

    /// Values of `global_row`, which must fall inside this bank.
    const float* RowValues(size_t global_row) const {
      return values_ + (global_row - first_row_) * stride_;
    }

   private:
    friend class ShardedEmbeddingTable;
    const ShardedEmbeddingTable* table_ = nullptr;
    size_t bank_ = 0;
    const float* values_ = nullptr;
    const float* adagrad_ = nullptr;
    size_t first_row_ = 0;
    size_t rows_ = 0;
    size_t stride_ = 0;
  };

  /// Maps (or re-uses an already-mapped) bank and pins it. Fails when the
  /// bank's CRC does not match its directory entry (torn/corrupt bank).
  StatusOr<BankLease> MapBank(size_t bank) const;

  /// Queues an asynchronous prefetch: a background thread maps the bank and
  /// touches its pages under a "shard_prefetch" trace span, so the next
  /// MapBank finds it hot. Best-effort; invalid bank indices are ignored.
  void Prefetch(size_t bank) const;

  /// Copies one row's values into `out` (dim floats).
  Status ReadRow(size_t row, std::span<float> out) const;

  /// Materializes the full table (values only) in RAM: the LSH candidate
  /// source's IndexSharded path (its blocker hashes every row in RAM) and a
  /// small-N convenience. The scans and the IVF build never call it; they
  /// stream banks through RowBanks.
  StatusOr<Matrix> ToMatrix() const;

  /// Materializes values + AdaGrad state (zeros when the file carries none).
  StatusOr<EmbeddingTable> ToEmbeddingTable() const;

  /// Currently mapped bank count / bytes (telemetry mirrors these as the
  /// shard/resident_banks and mem/shard_resident_mb gauges).
  size_t resident_banks() const;
  size_t resident_bytes() const;

  /// Unmaps every bank with no live lease, releasing its memory.
  void ReleaseUnpinned() const;

 private:
  ShardedEmbeddingTable() = default;
  struct BankSlot {
    void* map_base = nullptr;   // mmap return value (page-aligned).
    size_t map_len = 0;
    const float* values = nullptr;
    const float* adagrad = nullptr;
    size_t pins = 0;
    uint64_t last_use = 0;
    bool crc_verified = false;
  };

  StatusOr<BankLease> MapBankLocked(size_t bank,
                                    std::unique_lock<std::mutex>& lock) const;
  void UnmapSlotLocked(size_t bank) const;
  void EvictOverBudgetLocked() const;
  void Unpin(size_t bank) const;
  void PrefetchWorker();

  std::string path_;
  int fd_ = -1;
  OpenOptions options_;
  size_t num_rows_ = 0;
  size_t dim_ = 0;
  size_t row_stride_ = 0;
  size_t rows_per_bank_ = 0;
  size_t num_banks_ = 0;
  bool has_adagrad_ = false;
  uint64_t fingerprint_ = 0;
  struct BankMeta {
    uint64_t offset = 0;
    uint64_t bytes = 0;
    uint32_t value_crc = 0;
    uint32_t adagrad_crc = 0;
  };
  std::vector<BankMeta> meta_;

  mutable std::mutex mu_;
  mutable std::vector<BankSlot> slots_;
  mutable uint64_t use_tick_ = 0;
  mutable size_t resident_banks_ = 0;
  mutable size_t resident_bytes_ = 0;

  // Lazy prefetch thread: started on the first Prefetch() call.
  mutable std::mutex prefetch_mu_;
  mutable std::condition_variable prefetch_cv_;
  mutable std::deque<size_t> prefetch_queue_;
  mutable std::thread prefetch_thread_;
  mutable bool prefetch_started_ = false;
  mutable bool prefetch_stop_ = false;
};

/// Read-only view of a row set as leased banks (DESIGN.md, "Out-of-core
/// scale"). An in-RAM Matrix is one unpinned bank holding every row; a
/// ShardedEmbeddingTable is its mapped banks, leased through MapBank with
/// its prefetch and LRU residency behaviour. The top-k scan, the IVF build
/// and ranking eval are written once against this view, so their
/// out-of-core results equal the in-RAM ones because both run the same
/// code. A non-owning view: the matrix or table must outlive it. Implicit
/// from either storage so `StreamingTopK(src, tgt, ...)` takes both.
class RowBanks {
 public:
  using Bank = ShardedEmbeddingTable::BankLease;

  RowBanks(const Matrix& matrix) : matrix_(&matrix) {}  // NOLINT: implicit.
  RowBanks(const ShardedEmbeddingTable& table) : table_(&table) {}  // NOLINT

  size_t rows() const {
    return table_ != nullptr ? table_->num_rows() : matrix_->rows();
  }
  size_t dim() const {
    return table_ != nullptr ? table_->dim() : matrix_->cols();
  }
  /// A matrix is one bank (none when it has no rows).
  size_t num_banks() const {
    if (table_ != nullptr) return table_->num_banks();
    return matrix_->rows() > 0 ? 1 : 0;
  }
  size_t BankOfRow(size_t row) const {
    return table_ != nullptr ? table_->BankOfRow(row) : 0;
  }
  /// The table behind the view; null for a matrix.
  const ShardedEmbeddingTable* table() const { return table_; }

  /// Leases bank `bank`: maps and pins a table bank (a torn or corrupt bank
  /// fails here); a matrix's one bank is its own storage, unpinned.
  StatusOr<Bank> Lease(size_t bank) const;

  /// Calls fn(const Bank&) for every bank in order, queueing the next
  /// bank's asynchronous prefetch before each lease. Returns the first lease
  /// failure; fn has then seen the banks before it.
  template <typename Fn>
  Status ForEachBank(Fn&& fn) const {
    const size_t banks = num_banks();
    for (size_t b = 0; b < banks; ++b) {
      if (table_ != nullptr && b + 1 < banks) table_->Prefetch(b + 1);
      StatusOr<Bank> bank = Lease(b);
      if (!bank.ok()) return bank.status();
      fn(*bank);
    }
    return Status::OK();
  }

 private:
  const Matrix* matrix_ = nullptr;
  const ShardedEmbeddingTable* table_ = nullptr;
};

/// True when the file at `path` starts with the sharded-table magic (used by
/// align-serve to route a --checkpoint argument to the sharded loader).
bool IsShardedTableFile(const std::string& path);

}  // namespace openea::math

#endif  // OPENEA_MATH_SHARDED_TABLE_H_
