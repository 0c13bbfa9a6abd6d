#include "src/math/sharded_table.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/common/checkpoint.h"
#include "src/common/fault.h"
#include "src/common/telemetry.h"

namespace openea::math {
namespace {

constexpr char kMagic[8] = {'O', 'E', 'A', 'S', 'H', 'R', 'D', '\n'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kFlagHasAdagrad = 1u << 0;
constexpr size_t kFixedHeaderBytes = 64;
constexpr size_t kDirEntryBytes = 24;
constexpr size_t kHeaderCrcBytes = 4;

uint64_t AlignUp64(uint64_t offset) { return (offset + 63) & ~uint64_t{63}; }

void AppendLe32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void AppendLe64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t ReadLe32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

uint64_t ReadLe64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

uint64_t FnvU64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

Status WriteAt(int fd, uint64_t offset, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t written = ::pwrite(fd, p, n, static_cast<off_t>(offset));
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("sharded table write failed: " +
                              std::string(std::strerror(errno)));
    }
    p += written;
    offset += static_cast<uint64_t>(written);
    n -= static_cast<size_t>(written);
  }
  return Status::OK();
}

Status ReadAt(int fd, uint64_t offset, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::pread(fd, p, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("sharded table read failed: " +
                              std::string(std::strerror(errno)));
    }
    if (got == 0) {
      return Status::FailedPrecondition("sharded table truncated");
    }
    p += got;
    offset += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return Status::OK();
}

std::string_view Bytes(const float* data, size_t count) {
  return std::string_view(reinterpret_cast<const char*>(data),
                          count * sizeof(float));
}

}  // namespace

size_t ShardedRowStride(size_t dim) { return (dim + 15) & ~size_t{15}; }

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<ShardedTableWriter>> ShardedTableWriter::Create(
    const std::string& path, size_t num_rows, size_t dim,
    const ShardedTableOptions& options) {
  if (dim == 0) {
    return Status::InvalidArgument("sharded table dim must be > 0");
  }
  if (options.rows_per_bank == 0) {
    return Status::InvalidArgument("rows_per_bank must be > 0");
  }
  auto writer = std::unique_ptr<ShardedTableWriter>(new ShardedTableWriter());
  writer->path_ = path;
  writer->tmp_path_ = path + ".tmp";
  writer->num_rows_ = num_rows;
  writer->dim_ = dim;
  writer->row_stride_ = ShardedRowStride(dim);
  writer->rows_per_bank_ = options.rows_per_bank;
  writer->with_adagrad_ = options.with_adagrad;
  writer->num_banks_ =
      num_rows == 0 ? 0 : (num_rows + options.rows_per_bank - 1) /
                              options.rows_per_bank;
  writer->directory_.reserve(writer->num_banks_);
  writer->next_offset_ =
      AlignUp64(kFixedHeaderBytes + writer->num_banks_ * kDirEntryBytes +
                kHeaderCrcBytes);
  writer->values_buf_.assign(options.rows_per_bank * writer->row_stride_,
                             0.0f);
  if (options.with_adagrad) {
    writer->adagrad_buf_.assign(options.rows_per_bank * writer->row_stride_,
                                0.0f);
  }
  writer->fd_ = ::open(writer->tmp_path_.c_str(),
                       O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (writer->fd_ < 0) {
    return Status::Internal("cannot create " + writer->tmp_path_ + ": " +
                            std::strerror(errno));
  }
  return writer;
}

ShardedTableWriter::~ShardedTableWriter() {
  if (fd_ >= 0) ::close(fd_);
  if (!finalized_ && !tmp_path_.empty()) ::unlink(tmp_path_.c_str());
}

Status ShardedTableWriter::AppendRow(std::span<const float> values,
                                     std::span<const float> adagrad) {
  if (rows_appended_ >= num_rows_) {
    return Status::FailedPrecondition("AppendRow past declared num_rows");
  }
  if (values.size() != dim_) {
    return Status::InvalidArgument("AppendRow: values must hold dim floats");
  }
  if (with_adagrad_ ? adagrad.size() != dim_ : !adagrad.empty()) {
    return Status::InvalidArgument(
        "AppendRow: adagrad span does not match table options");
  }
  float* dst = values_buf_.data() + rows_in_bank_ * row_stride_;
  std::memcpy(dst, values.data(), dim_ * sizeof(float));
  if (with_adagrad_) {
    float* ag = adagrad_buf_.data() + rows_in_bank_ * row_stride_;
    std::memcpy(ag, adagrad.data(), dim_ * sizeof(float));
  }
  ++rows_in_bank_;
  ++rows_appended_;
  if (rows_in_bank_ == rows_per_bank_) return FlushBank();
  return Status::OK();
}

Status ShardedTableWriter::FlushBank() {
  if (FAULT_POINT("shard/enospc")) {
    return Status::Internal("No space left on device (injected)");
  }
  const size_t floats = rows_in_bank_ * row_stride_;
  BankRecord record;
  record.offset = next_offset_;
  record.bytes = floats * sizeof(float) * (with_adagrad_ ? 2 : 1);
  record.value_crc = checkpoint::Crc32(Bytes(values_buf_.data(), floats));
  if (with_adagrad_) {
    record.adagrad_crc = checkpoint::Crc32(Bytes(adagrad_buf_.data(), floats));
  }
  if (FAULT_POINT("shard/short_write")) {
    // Torn bank: only half the payload reaches disk while the directory
    // claims the full CRC. MapBank detects the tear at read time.
    const size_t half = record.bytes / 2;
    Status status = WriteAt(fd_, record.offset, values_buf_.data(), half);
    if (!status.ok()) return status;
  } else {
    Status status =
        WriteAt(fd_, record.offset, values_buf_.data(), floats * sizeof(float));
    if (!status.ok()) return status;
    if (with_adagrad_) {
      status = WriteAt(fd_, record.offset + floats * sizeof(float),
                       adagrad_buf_.data(), floats * sizeof(float));
      if (!status.ok()) return status;
    }
  }
  directory_.push_back(record);
  next_offset_ = AlignUp64(record.offset + record.bytes);
  rows_in_bank_ = 0;
  std::memset(values_buf_.data(), 0, values_buf_.size() * sizeof(float));
  if (with_adagrad_) {
    std::memset(adagrad_buf_.data(), 0, adagrad_buf_.size() * sizeof(float));
  }
  return Status::OK();
}

Status ShardedTableWriter::Finalize() {
  if (finalized_) return Status::FailedPrecondition("Finalize called twice");
  if (rows_appended_ != num_rows_) {
    return Status::FailedPrecondition("Finalize before all rows appended");
  }
  if (rows_in_bank_ > 0) {
    Status status = FlushBank();
    if (!status.ok()) return status;
  }
  if (directory_.size() != num_banks_) {
    return Status::Internal("bank directory size mismatch");
  }
  // Make sure the file extends to the padded end of the last bank even when
  // the final payload stopped short of the alignment boundary.
  if (::ftruncate(fd_, static_cast<off_t>(next_offset_)) != 0) {
    return Status::Internal("ftruncate failed: " +
                            std::string(std::strerror(errno)));
  }
  std::string header;
  header.reserve(kFixedHeaderBytes + num_banks_ * kDirEntryBytes +
                 kHeaderCrcBytes);
  header.append(kMagic, sizeof(kMagic));
  AppendLe32(header, kFormatVersion);
  AppendLe32(header, with_adagrad_ ? kFlagHasAdagrad : 0);
  AppendLe64(header, num_rows_);
  AppendLe64(header, dim_);
  AppendLe64(header, row_stride_);
  AppendLe64(header, rows_per_bank_);
  AppendLe64(header, num_banks_);
  const uint64_t data_begin = AlignUp64(
      kFixedHeaderBytes + num_banks_ * kDirEntryBytes + kHeaderCrcBytes);
  AppendLe64(header, data_begin);
  for (const BankRecord& record : directory_) {
    AppendLe64(header, record.offset);
    AppendLe64(header, record.bytes);
    AppendLe32(header, record.value_crc);
    AppendLe32(header, record.adagrad_crc);
  }
  AppendLe32(header, checkpoint::Crc32(header));
  if (FAULT_POINT("shard/enospc")) {
    return Status::Internal("No space left on device (injected)");
  }
  Status status = WriteAt(fd_, 0, header.data(), header.size());
  if (!status.ok()) return status;
  ::close(fd_);
  fd_ = -1;
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    return Status::Internal("rename to " + path_ + " failed: " +
                            std::strerror(errno));
  }
  finalized_ = true;
  (void)FAULT_POINT("shard/after_write");
  return Status::OK();
}

Status WriteShardedTable(const std::string& path, const Matrix& values,
                         const ShardedTableOptions& options) {
  ShardedTableOptions opts = options;
  opts.with_adagrad = false;
  auto writer = ShardedTableWriter::Create(path, values.rows(), values.cols(),
                                           opts);
  if (!writer.ok()) return writer.status();
  for (size_t r = 0; r < values.rows(); ++r) {
    Status status = (*writer)->AppendRow(values.Row(r));
    if (!status.ok()) return status;
  }
  return (*writer)->Finalize();
}

Status WriteShardedTable(const std::string& path, const EmbeddingTable& table,
                         size_t rows_per_bank) {
  ShardedTableOptions opts;
  opts.rows_per_bank = rows_per_bank;
  opts.with_adagrad = true;
  auto writer =
      ShardedTableWriter::Create(path, table.num_rows(), table.dim(), opts);
  if (!writer.ok()) return writer.status();
  std::span<const float> adagrad = table.AdagradData();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    Status status = (*writer)->AppendRow(
        table.Row(r), adagrad.subspan(r * table.dim(), table.dim()));
    if (!status.ok()) return status;
  }
  return (*writer)->Finalize();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

StatusOr<std::shared_ptr<ShardedEmbeddingTable>> ShardedEmbeddingTable::Open(
    const std::string& path, const OpenOptions& options) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no sharded table at " + path);
    }
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  auto table =
      std::shared_ptr<ShardedEmbeddingTable>(new ShardedEmbeddingTable());
  table->path_ = path;
  table->fd_ = fd;
  table->options_ = options;

  char fixed[kFixedHeaderBytes];
  Status status = ReadAt(fd, 0, fixed, sizeof(fixed));
  if (!status.ok()) return status;
  if (std::memcmp(fixed, kMagic, sizeof(kMagic)) != 0) {
    return Status::FailedPrecondition(path + " is not a sharded table");
  }
  const uint32_t version = ReadLe32(fixed + 8);
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        "sharded table format version " + std::to_string(version) +
        ", expected " + std::to_string(kFormatVersion));
  }
  const uint32_t flags = ReadLe32(fixed + 12);
  table->has_adagrad_ = (flags & kFlagHasAdagrad) != 0;
  table->num_rows_ = ReadLe64(fixed + 16);
  table->dim_ = ReadLe64(fixed + 24);
  table->row_stride_ = ReadLe64(fixed + 32);
  table->rows_per_bank_ = ReadLe64(fixed + 40);
  table->num_banks_ = ReadLe64(fixed + 48);
  const uint64_t data_begin = ReadLe64(fixed + 56);
  if (table->dim_ == 0 || table->row_stride_ < table->dim_ ||
      table->row_stride_ % 16 != 0 || table->rows_per_bank_ == 0) {
    return Status::FailedPrecondition("sharded table header is corrupt");
  }
  const size_t expected_banks =
      table->num_rows_ == 0
          ? 0
          : (table->num_rows_ + table->rows_per_bank_ - 1) /
                table->rows_per_bank_;
  if (table->num_banks_ != expected_banks) {
    return Status::FailedPrecondition("sharded table bank count mismatch");
  }
  const uint64_t header_bytes =
      kFixedHeaderBytes + table->num_banks_ * kDirEntryBytes;
  if (data_begin < header_bytes + kHeaderCrcBytes) {
    return Status::FailedPrecondition("sharded table data_begin overlaps header");
  }
  std::string header(header_bytes + kHeaderCrcBytes, '\0');
  status = ReadAt(fd, 0, header.data(), header.size());
  if (!status.ok()) return status;
  const uint32_t stored_crc = ReadLe32(header.data() + header_bytes);
  const uint32_t actual_crc =
      checkpoint::Crc32(std::string_view(header.data(), header_bytes));
  if (stored_crc != actual_crc) {
    return Status::FailedPrecondition("sharded table header CRC mismatch");
  }

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::Internal("fstat failed: " + std::string(std::strerror(errno)));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);

  uint64_t fp = 1469598103934665603ULL;
  fp = FnvU64(fp, version);
  fp = FnvU64(fp, flags);
  fp = FnvU64(fp, table->num_rows_);
  fp = FnvU64(fp, table->dim_);
  fp = FnvU64(fp, table->row_stride_);
  fp = FnvU64(fp, table->rows_per_bank_);
  fp = FnvU64(fp, table->num_banks_);

  table->meta_.resize(table->num_banks_);
  for (size_t b = 0; b < table->num_banks_; ++b) {
    const char* entry = header.data() + kFixedHeaderBytes + b * kDirEntryBytes;
    BankMeta& meta = table->meta_[b];
    meta.offset = ReadLe64(entry);
    meta.bytes = ReadLe64(entry + 8);
    meta.value_crc = ReadLe32(entry + 16);
    meta.adagrad_crc = ReadLe32(entry + 20);
    const uint64_t expected_bytes = uint64_t{table->BankRows(b)} *
                                    table->row_stride_ * sizeof(float) *
                                    (table->has_adagrad_ ? 2 : 1);
    if (meta.offset % 64 != 0 || meta.offset < data_begin ||
        meta.bytes != expected_bytes || meta.offset + meta.bytes > file_size) {
      return Status::FailedPrecondition(
          "sharded table bank " + std::to_string(b) +
          " directory entry is invalid or truncated");
    }
    fp = FnvU64(fp, meta.value_crc);
    fp = FnvU64(fp, meta.adagrad_crc);
  }
  table->fingerprint_ = fp;
  table->slots_.resize(table->num_banks_);
  return table;
}

ShardedEmbeddingTable::~ShardedEmbeddingTable() {
  {
    std::unique_lock<std::mutex> lock(prefetch_mu_);
    if (prefetch_started_) {
      prefetch_stop_ = true;
      prefetch_cv_.notify_all();
    }
  }
  if (prefetch_thread_.joinable()) prefetch_thread_.join();
  std::unique_lock<std::mutex> lock(mu_);
  for (size_t b = 0; b < slots_.size(); ++b) {
    if (slots_[b].map_base != nullptr) UnmapSlotLocked(b);
  }
  if (fd_ >= 0) ::close(fd_);
}

size_t ShardedEmbeddingTable::BankRows(size_t bank) const {
  const size_t first = bank * rows_per_bank_;
  const size_t last = std::min(first + rows_per_bank_, num_rows_);
  return last - first;
}

uint64_t ShardedEmbeddingTable::ContentFingerprint() const {
  return fingerprint_;
}

ShardedEmbeddingTable::BankLease& ShardedEmbeddingTable::BankLease::operator=(
    BankLease&& other) noexcept {
  if (this != &other) {
    if (table_ != nullptr) table_->Unpin(bank_);
    table_ = std::exchange(other.table_, nullptr);
    bank_ = other.bank_;
    values_ = other.values_;
    adagrad_ = other.adagrad_;
    first_row_ = other.first_row_;
    rows_ = other.rows_;
    stride_ = other.stride_;
  }
  return *this;
}

ShardedEmbeddingTable::BankLease::~BankLease() {
  if (table_ != nullptr) table_->Unpin(bank_);
}

StatusOr<ShardedEmbeddingTable::BankLease> ShardedEmbeddingTable::MapBank(
    size_t bank) const {
  if (bank >= num_banks_) {
    return Status::InvalidArgument("MapBank: bank index out of range");
  }
  std::unique_lock<std::mutex> lock(mu_);
  return MapBankLocked(bank, lock);
}

StatusOr<ShardedEmbeddingTable::BankLease> ShardedEmbeddingTable::MapBankLocked(
    size_t bank, std::unique_lock<std::mutex>& lock) const {
  BankSlot& slot = slots_[bank];
  if (slot.map_base == nullptr) {
    const BankMeta& meta = meta_[bank];
    const long page = ::sysconf(_SC_PAGESIZE);
    const uint64_t page_mask = static_cast<uint64_t>(page) - 1;
    const uint64_t map_off = meta.offset & ~page_mask;
    const size_t delta = static_cast<size_t>(meta.offset - map_off);
    const size_t map_len = delta + static_cast<size_t>(meta.bytes);
    void* base = ::mmap(nullptr, map_len, PROT_READ, MAP_PRIVATE, fd_,
                        static_cast<off_t>(map_off));
    if (base == MAP_FAILED) {
      return Status::Internal("mmap of bank " + std::to_string(bank) +
                              " failed: " + std::strerror(errno));
    }
    slot.map_base = base;
    slot.map_len = map_len;
    const size_t floats = BankRows(bank) * row_stride_;
    slot.values = reinterpret_cast<const float*>(
        static_cast<const char*>(base) + delta);
    slot.adagrad = has_adagrad_ ? slot.values + floats : nullptr;
    resident_banks_ += 1;
    resident_bytes_ += map_len;
    telemetry::IncrCounter("shard/bank_maps");
    telemetry::SetGauge("shard/resident_banks",
                        static_cast<double>(resident_banks_));
    telemetry::SetGauge("mem/shard_resident_mb",
                        static_cast<double>(resident_bytes_) / (1024.0 * 1024.0));
    if (options_.verify_crc && !slot.crc_verified) {
      telemetry::IncrCounter("shard/crc_checks");
      const uint32_t value_crc = checkpoint::Crc32(Bytes(slot.values, floats));
      const uint32_t adagrad_crc =
          has_adagrad_ ? checkpoint::Crc32(Bytes(slot.adagrad, floats)) : 0;
      if (value_crc != meta_[bank].value_crc ||
          adagrad_crc != meta_[bank].adagrad_crc) {
        telemetry::IncrCounter("shard/crc_failures");
        UnmapSlotLocked(bank);
        return Status::FailedPrecondition(
            "sharded table bank " + std::to_string(bank) +
            " CRC mismatch (torn or corrupted bank)");
      }
      slot.crc_verified = true;
    }
  }
  slot.pins += 1;
  slot.last_use = ++use_tick_;
  EvictOverBudgetLocked();
  BankLease lease;
  lease.table_ = this;
  lease.bank_ = bank;
  lease.values_ = slot.values;
  lease.adagrad_ = slot.adagrad;
  lease.first_row_ = BankFirstRow(bank);
  lease.rows_ = BankRows(bank);
  lease.stride_ = row_stride_;
  (void)lock;
  return lease;
}

void ShardedEmbeddingTable::UnmapSlotLocked(size_t bank) const {
  BankSlot& slot = slots_[bank];
  ::munmap(slot.map_base, slot.map_len);
  resident_banks_ -= 1;
  resident_bytes_ -= slot.map_len;
  slot.map_base = nullptr;
  slot.map_len = 0;
  slot.values = nullptr;
  slot.adagrad = nullptr;
  telemetry::IncrCounter("shard/bank_unmaps");
  telemetry::SetGauge("shard/resident_banks",
                      static_cast<double>(resident_banks_));
  telemetry::SetGauge("mem/shard_resident_mb",
                      static_cast<double>(resident_bytes_) / (1024.0 * 1024.0));
}

void ShardedEmbeddingTable::EvictOverBudgetLocked() const {
  if (options_.max_resident_banks == 0) return;
  while (resident_banks_ > options_.max_resident_banks) {
    size_t victim = num_banks_;
    uint64_t oldest = UINT64_MAX;
    for (size_t b = 0; b < slots_.size(); ++b) {
      const BankSlot& slot = slots_[b];
      if (slot.map_base != nullptr && slot.pins == 0 &&
          slot.last_use < oldest) {
        oldest = slot.last_use;
        victim = b;
      }
    }
    if (victim == num_banks_) return;  // Everything pinned: soft budget.
    UnmapSlotLocked(victim);
  }
}

void ShardedEmbeddingTable::Unpin(size_t bank) const {
  std::unique_lock<std::mutex> lock(mu_);
  slots_[bank].pins -= 1;
  EvictOverBudgetLocked();
}

void ShardedEmbeddingTable::ReleaseUnpinned() const {
  std::unique_lock<std::mutex> lock(mu_);
  for (size_t b = 0; b < slots_.size(); ++b) {
    if (slots_[b].map_base != nullptr && slots_[b].pins == 0) {
      UnmapSlotLocked(b);
    }
  }
}

void ShardedEmbeddingTable::Prefetch(size_t bank) const {
  if (bank >= num_banks_) return;
  std::unique_lock<std::mutex> lock(prefetch_mu_);
  if (!prefetch_started_) {
    prefetch_started_ = true;
    prefetch_thread_ = std::thread(
        [self = const_cast<ShardedEmbeddingTable*>(this)] {
          self->PrefetchWorker();
        });
  }
  prefetch_queue_.push_back(bank);
  telemetry::IncrCounter("shard/prefetch_requests");
  prefetch_cv_.notify_one();
}

void ShardedEmbeddingTable::PrefetchWorker() {
  for (;;) {
    size_t bank;
    {
      std::unique_lock<std::mutex> lock(prefetch_mu_);
      prefetch_cv_.wait(lock, [this] {
        return prefetch_stop_ || !prefetch_queue_.empty();
      });
      if (prefetch_stop_) return;
      bank = prefetch_queue_.front();
      prefetch_queue_.pop_front();
    }
    telemetry::ScopedSpan span("shard_prefetch");
    auto lease = MapBank(bank);
    if (!lease.ok()) continue;  // Best-effort: CRC errors surface in MapBank.
    // Touch one float per page so the kernel faults the bank in now instead
    // of on the scan thread's critical path.
    const long page = ::sysconf(_SC_PAGESIZE);
    const size_t step = static_cast<size_t>(page) / sizeof(float);
    const size_t floats = lease->rows() * lease->stride();
    float sum = 0.0f;
    for (size_t i = 0; i < floats; i += step) sum += lease->values()[i];
    volatile float sink = sum;  // Keeps the loads from being elided.
    (void)sink;
  }
}

Status ShardedEmbeddingTable::ReadRow(size_t row, std::span<float> out) const {
  if (row >= num_rows_) {
    return Status::InvalidArgument("ReadRow: row out of range");
  }
  if (out.size() != dim_) {
    return Status::InvalidArgument("ReadRow: out must hold dim floats");
  }
  auto lease = MapBank(BankOfRow(row));
  if (!lease.ok()) return lease.status();
  std::memcpy(out.data(), lease->RowValues(row), dim_ * sizeof(float));
  return Status::OK();
}

StatusOr<Matrix> ShardedEmbeddingTable::ToMatrix() const {
  Matrix out(num_rows_, dim_);
  for (size_t b = 0; b < num_banks_; ++b) {
    auto lease = MapBank(b);
    if (!lease.ok()) return lease.status();
    for (size_t r = 0; r < lease->rows(); ++r) {
      std::memcpy(out.Row(lease->first_row() + r).data(),
                  lease->values() + r * row_stride_, dim_ * sizeof(float));
    }
  }
  return out;
}

StatusOr<EmbeddingTable> ShardedEmbeddingTable::ToEmbeddingTable() const {
  std::vector<float> data(num_rows_ * dim_, 0.0f);
  std::vector<float> adagrad(num_rows_ * dim_, 0.0f);
  for (size_t b = 0; b < num_banks_; ++b) {
    auto lease = MapBank(b);
    if (!lease.ok()) return lease.status();
    for (size_t r = 0; r < lease->rows(); ++r) {
      const size_t row = lease->first_row() + r;
      std::memcpy(data.data() + row * dim_, lease->values() + r * row_stride_,
                  dim_ * sizeof(float));
      if (has_adagrad_) {
        std::memcpy(adagrad.data() + row * dim_,
                    lease->adagrad() + r * row_stride_, dim_ * sizeof(float));
      }
    }
  }
  return EmbeddingTable::FromParts(num_rows_, dim_, std::move(data),
                                   std::move(adagrad));
}

size_t ShardedEmbeddingTable::resident_banks() const {
  std::unique_lock<std::mutex> lock(mu_);
  return resident_banks_;
}

size_t ShardedEmbeddingTable::resident_bytes() const {
  std::unique_lock<std::mutex> lock(mu_);
  return resident_bytes_;
}

StatusOr<RowBanks::Bank> RowBanks::Lease(size_t bank) const {
  if (table_ != nullptr) return table_->MapBank(bank);
  if (bank >= num_banks()) {
    return Status::InvalidArgument("Lease: bank index out of range");
  }
  return Bank(matrix_->Data().data(), 0, matrix_->rows(), matrix_->cols());
}

bool IsShardedTableFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  char head[8];
  const bool sharded = ::pread(fd, head, sizeof(head), 0) ==
                           static_cast<ssize_t>(sizeof(head)) &&
                       std::memcmp(head, kMagic, sizeof(kMagic)) == 0;
  ::close(fd);
  return sharded;
}

}  // namespace openea::math
