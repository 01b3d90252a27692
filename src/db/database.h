#ifndef DATASPREAD_DB_DATABASE_H_
#define DATASPREAD_DB_DATABASE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/write_latch.h"
#include "common/result.h"
#include "storage/file_lock.h"
#include "exec/join_build.h"
#include "exec/resolver.h"
#include "exec/result_set.h"
#include "exec/row_batch.h"
#include "sql/ast.h"

namespace dataspread {

struct AggGroup;
struct SelectCapture;

class Database;

/// Construction-time options for a Database.
struct DatabaseOptions {
  /// Buffer-pool policy of the shared pager every table of this database
  /// allocates from: `max_resident_pages` bounds in-memory frames (0 =
  /// unbounded), `spill_path` names the eviction/checkpoint backing file
  /// (empty = anonymous temp file). With `wal_path` + `durable_spill` set,
  /// the database is fully *durable and reopenable*: every table mutation
  /// is WAL-logged, the catalog (schemas, storage models, attribute groups,
  /// display order) persists through checkpoint snapshots and DDL records,
  /// and constructing a Database over the same pair — or calling
  /// Database::Open on the same path — recovers every table, schema, and
  /// row with no application-side rebuild (DESIGN.md §6, docs/DURABILITY.md).
  storage::PagerConfig pager;
  /// Query-execution shape: batch size and the morsel-parallel leaf (see
  /// ExecOptions). Defaults drive every SELECT through the serial batch
  /// pipeline at kDefaultExecBatchSize tuples per batch.
  ExecOptions exec;
  /// Fsync the WAL at the end of every successful mutating statement, making
  /// each commit individually durable. Off (the default) keeps the PR 5
  /// durability contract: statements are logged (and atomic — see the
  /// statement brackets, DESIGN.md §7) but only made durable by the next
  /// checkpoint, DDL, or explicit barrier. See docs/DURABILITY.md's
  /// durability-level table.
  bool sync_on_commit = false;
  /// With sync_on_commit: run the commit barrier outside the session lock,
  /// so concurrent committers park on one fsync (group commit — one leader
  /// syncs, all release; Wal::SyncThrough). Off = the barrier runs inside
  /// the statement lock, one fsync per commit — the serial baseline
  /// bench_txn A/Bs against. No effect without sync_on_commit.
  bool group_commit = true;
};

/// One SQL connection: the unit of transaction state and of statement
/// serialization. Each Session owns its own multi-statement transaction —
/// open flag, undo journal, the set of write-latched tables — and a mutex
/// that serializes statements *on this session only*; statements on
/// different sessions run concurrently, fully in parallel when they touch
/// disjoint tables (DESIGN.md §7 "Partitioned write latching").
///
/// Sessions come from Database::CreateSession() and must be destroyed
/// before their Database. A transaction still open at destruction is
/// rolled back. A Session is not itself thread-safe in the sense of
/// interleaving one transaction from two threads — use one session per
/// thread of control, like a connection.
class Session {
 public:
  ~Session();

  /// Parses and executes one SQL statement on this session. Semantics are
  /// identical to Database::Execute (which delegates to the database's
  /// embedded default session).
  Result<ResultSet> Execute(std::string_view sql,
                            ExternalResolver* resolver = nullptr);

  /// True while a BEGIN is open (poisoned or not).
  bool in_transaction() const { return txn_open_; }

 private:
  friend class Database;
  explicit Session(Database* db) : db_(db) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Database* db_;
  /// Serializes statements on this session (recursive: the compute engine's
  /// callbacks may re-enter Execute on the same session).
  std::recursive_mutex mu_;
  // ---- Multi-statement transaction state (guarded by mu_) ----
  bool txn_open_ = false;
  /// A failed statement poisons the transaction (Postgres semantics): every
  /// further statement fails until ROLLBACK; COMMIT rolls back. A deadlock
  /// victim is poisoned with txn_id_ already zeroed — its work was rolled
  /// back eagerly, so the client's ROLLBACK only clears the flags.
  bool txn_poisoned_ = false;
  /// The pager transaction context (0 = none open). Doubles as this
  /// transaction's age for wait-die latch ordering: smaller id == older.
  storage::TxnId txn_id_ = 0;
  UndoJournal undo_;
  /// Tables this transaction holds exclusive write latches on, in
  /// acquisition order. Strict 2PL: grows during the transaction, released
  /// only at commit/rollback.
  std::vector<Table*> latched_;
  /// End LSN of the statement's committed bracket (0 = nothing committed);
  /// consumed by the commit barrier under sync_on_commit.
  uint64_t last_commit_end_lsn_ = 0;
};

/// The embedded relational engine standing in for the paper's PostgreSQL
/// back-end (see DESIGN.md §2). Statements execute per-*session*; each is a
/// transaction of its own (autocommit) unless a SQL `BEGIN` is open on that
/// session, in which case its statements accumulate into one
/// multi-statement transaction closed by `COMMIT` or `ROLLBACK`/`ABORT`.
/// Atomicity holds at the transaction granularity both for logical failures
/// (a per-transaction undo journal restores tables, display order, and
/// row-id maps on rollback) and across crashes (txn-id-tagged WAL brackets
/// — recovery replays exactly the committed-transaction set, DESIGN.md §7).
///
/// The per-session state machine is Postgres-shaped: nested BEGIN is
/// rejected, COMMIT/ROLLBACK without BEGIN is rejected, any error inside an
/// open transaction *poisons* it (every further statement fails until
/// ROLLBACK; COMMIT of a poisoned transaction rolls back), and DDL inside
/// an explicit transaction is rejected (DDL records are individually-
/// durable commit points that cannot ride an abortable bracket).
///
/// Threading — partitioned write latching (DESIGN.md §7): transactions on
/// *disjoint* tables proceed fully in parallel. Every DML statement takes
/// its target table's exclusive write latch (transactions keep theirs until
/// commit/rollback — strict 2PL on the write set) and its read set shared;
/// SELECTs take their table set shared for the statement. Deadlocks are
/// prevented by wait-die on transaction age: a younger transaction that
/// would wait on an older one while holding latches is instead aborted
/// with a retryable SerializationConflict, rolled back via its undo
/// journal, and left poisoned until the client's ROLLBACK. DDL excludes
/// all statements (a schema shared/exclusive latch) and fails fast on
/// tables locked by open transactions. With `sync_on_commit` +
/// `group_commit`, concurrent committers batch their commit barriers onto
/// one fsync.
class Database {
 public:
  Database() : Database(DatabaseOptions{}) {}
  /// Bounded-pool construction: the paper's million-cell sheets run behind a
  /// pool of a few hundred frames with cold pages spilled to disk. With a
  /// durable PagerConfig this is also the recovery path: page redo runs in
  /// the pager's constructor, then the catalog is rebuilt from the recovered
  /// snapshot blob + catalog records and every table rebinds to its files —
  /// the constructed database is ready to query, no schema rebuild needed.
  /// A catalog that fails recovery aborts (TryOpen returns it instead).
  explicit Database(const DatabaseOptions& options);

  /// A clean shutdown: captures the final catalog snapshot, then tears
  /// down. Durable pagers end on a checkpoint, so the next Open replays an
  /// empty log. Calling Close() first is optional. Sessions created with
  /// CreateSession() must already be destroyed.
  ~Database();

  /// Opens (creating on first use) a durable database rooted at `base_path`:
  /// the data lives in `<base_path>.pages`, the log in `<base_path>.wal`.
  /// `options.pager`'s pool fields (cap, scan resistance, auto-checkpoint)
  /// are honored; its path fields are overwritten. The returned database
  /// holds every table exactly as last checkpointed/logged — see
  /// docs/DURABILITY.md for the full lifecycle. The pair is guarded by an
  /// advisory lock on `<base_path>.wal.lock`: a second open while this one
  /// is alive *aborts* (construction has no error channel), and so does a
  /// catalog that fails recovery. Use TryOpen for the graceful-failure path.
  static std::unique_ptr<Database> Open(const std::string& base_path,
                                        DatabaseOptions options = {});

  /// Like Open, but fails softly: returns AlreadyExists when another live
  /// Database (this process or another) holds the pair's lock, and the
  /// recovery error (Corruption for a catalog that fails Table::Attach's
  /// invariant or does not decode) when the catalog cannot be recovered,
  /// instead of aborting. The lock is released when the returned Database
  /// is destroyed.
  static Result<std::unique_ptr<Database>> TryOpen(
      const std::string& base_path, DatabaseOptions options = {});

  /// The `Open` path convention as plain options: `<base>.pages` +
  /// `<base>.wal`, durable. The one place the convention lives — the
  /// DataSpread facade's `database_path` resolves through here too.
  static DatabaseOptions DurableOptions(const std::string& base_path,
                                        DatabaseOptions options = {});

  /// Checkpoints and seals the database: all state is on disk and the log
  /// is empty. Every subsequent Execute()/CreateTable() — SELECTs included,
  /// the gate does not classify statements — fails with InvalidArgument;
  /// direct table access (GetWindow/GetRowAt) keeps serving. Idempotent.
  /// The pair can be reopened (by a new Database) after *destruction* —
  /// two live pagers on one pair would corrupt it.
  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  Catalog& catalog() { return catalog_; }

  /// The unified paged storage engine: every table of this database allocates
  /// its heaps from this one accounted pool.
  storage::Pager& pager() { return pager_; }
  const storage::Pager& pager() const { return pager_; }

  /// Flushes every dirty page of every table to the spill file; under a WAL
  /// (DatabaseOptions.pager.wal_path) this is the fuzzy checkpoint that also
  /// truncates the log and bounds recovery time. Quiesces statements (the
  /// schema latch) first; returns 0 — checkpoint declined — while any
  /// session holds an open transaction bracket. Returns pages written.
  size_t Checkpoint();

  /// Creates a new SQL session (connection). Sessions execute statements
  /// concurrently with each other and with the default session; see the
  /// class comment for the latching protocol. The session must be
  /// destroyed before this Database.
  std::unique_ptr<Session> CreateSession();

  /// Parses and executes one SQL statement on the embedded default session.
  /// `resolver` supplies the spreadsheet context for RANGEVALUE/RANGETABLE
  /// (null = plain SQL only). With `capture` set, a successful SELECT also
  /// hands over its executed statement and, for an aggregate query, its
  /// folded groups — what a maintained DBSQL result is seeded from.
  Result<ResultSet> Execute(std::string_view sql,
                            ExternalResolver* resolver = nullptr,
                            SelectCapture* capture = nullptr);

  /// Registered callbacks fire after every mutation of any table
  /// (the back-end half of the paper's two-way sync).
  using ChangeListener =
      std::function<void(const std::string& table_name, const TableChange&)>;
  int AddChangeListener(ChangeListener listener);
  void RemoveChangeListener(int token);

  /// Creates a table directly (bypassing SQL); used by import paths.
  Result<Table*> CreateTable(std::string name, Schema schema,
                             StorageModel model = StorageModel::kHybrid);

  uint64_t statements_executed() const {
    return statements_executed_.load(std::memory_order_relaxed);
  }

  /// Hash-join build tables the batch pipeline made, and builds it reused
  /// because their table's version had not moved (DESIGN.md §6a "Build
  /// reuse"). Lifetime counts over every session.
  uint64_t join_builds() const { return join_builds_.builds(); }
  uint64_t join_build_reuses() const { return join_builds_.reuses(); }
  const JoinBuildCache& join_build_cache() const { return join_builds_; }

  /// Execution-pipeline knobs for subsequent statements. The mutator lets
  /// benches and the transparency tests A/B the row and batch pipelines on
  /// one loaded database. Not synchronized: set before going concurrent.
  const ExecOptions& exec_options() const { return exec_; }
  void set_exec_options(const ExecOptions& exec) { exec_ = exec; }

 private:
  friend class Session;
  /// Statement-scoped latch bookkeeping for one DML statement; defined in
  /// database.cc.
  struct WriteGuard;

  /// Lock-then-construct: the advisory pair lock must be held before the
  /// pager's constructor opens (and possibly recovers) the WAL. Leaves a
  /// durable catalog unrecovered; the caller runs RecoverCatalog.
  Database(const DatabaseOptions& options, storage::FileLock lock);
  /// Acquires the pair lock for durable options (no-op otherwise); aborts
  /// with the lock holder's message on conflict — the constructor path's
  /// fail-fast. TryOpen surfaces the same condition as a Status instead.
  static storage::FileLock LockPairOrDie(const DatabaseOptions& options);
  /// The lock file guarding `wal_path`'s pair (empty for non-durable).
  static std::string LockPathFor(const DatabaseOptions& options);

  /// The statement engine behind Session::Execute / Database::Execute.
  Result<ResultSet> ExecuteForSession(Session& session, std::string_view sql,
                                      ExternalResolver* resolver,
                                      SelectCapture* capture = nullptr);

  Result<ResultSet> Dispatch(Session& session, sql::Statement& stmt,
                             ExternalResolver* resolver,
                             std::vector<AggGroup>* groups);
  Result<ResultSet> ExecuteSelect(Session& session, sql::SelectStmt& stmt,
                                  ExternalResolver* resolver,
                                  std::vector<AggGroup>* groups);
  Result<ResultSet> ExecuteInsert(Session& session, sql::InsertStmt& stmt,
                                  ExternalResolver* resolver);
  Result<ResultSet> ExecuteUpdate(Session& session, sql::UpdateStmt& stmt,
                                  ExternalResolver* resolver);
  Result<ResultSet> ExecuteDelete(Session& session, sql::DeleteStmt& stmt,
                                  ExternalResolver* resolver);
  Result<ResultSet> ExecuteCreate(sql::CreateTableStmt& stmt);
  Result<ResultSet> ExecuteDrop(sql::DropTableStmt& stmt);
  Result<ResultSet> ExecuteAlter(sql::AlterTableStmt& stmt,
                                 ExternalResolver* resolver);
  Result<ResultSet> ExecuteTransaction(Session& session,
                                       const sql::TransactionStmt& stmt);
  Result<ResultSet> ExecuteLockTable(Session& session,
                                     sql::LockTableStmt& stmt);

  /// DDL's fast-fail against open transactions: InvalidArgument when
  /// `table` is write-latched. Caller holds schema_mu_ exclusive (which
  /// stops new acquisitions, making the answer stable).
  Status FailIfLatched(const std::string& table) const;

  /// Rolls `session`'s open transaction back: undo journal applied in
  /// reverse (capture suspended, the owning txn context still installed so
  /// the compensations ride the transaction's WAL bracket), the bracket
  /// closed with kTxnAbort, and — strictly after the close record — the
  /// write latches released. An undo failure aborts the process (the
  /// in-memory state would be neither the pre- nor the post-transaction
  /// one). Safe to call with no pager context open (a deadlock victim's
  /// second rollback): only the session flags are cleared.
  void RollbackSessionTxn(Session& session);

  /// The wait-die abort path: rolls the transaction back eagerly (releasing
  /// its latches so the older transaction can proceed) and re-poisons the
  /// session, so the client sees Postgres aborted-transaction semantics —
  /// every statement fails until its ROLLBACK, which merely clears flags.
  void VictimizeSession(Session& session);

  /// Wires a table's change events to the database-level listeners.
  void AttachForwarding(Table* table);

  /// Durable construction tail: rebuild the catalog from the pager's
  /// recovered blob + DDL records, attach every table, sweep orphan files
  /// (a DDL torn before its record became durable), then install the
  /// snapshot provider so future checkpoints embed the live catalog.
  /// Returns the first failure without repairing anything: state this
  /// fundamental is never silently discarded.
  Status RecoverCatalog();

  storage::FileLock file_lock_;  // declared (acquired) before pager_: the
                                 // pair must be ours before recovery touches it
  storage::Pager pager_;        // declared before catalog_: tables release
                                // into it on destruction
  Catalog catalog_{&pager_};
  /// Catalog-structure latch: every statement holds it shared for its
  /// duration; DDL (and direct CreateTable) holds it exclusive. This is
  /// what makes catalog_'s name→table map safe under concurrent sessions —
  /// and gives DDL a quiesced world to mutate it in. COMMIT/ROLLBACK touch
  /// only write-latched tables (which DDL fails fast on), so transaction
  /// control skips it. Reader-preferring by necessity — see SchemaLatch.
  SchemaLatch schema_mu_;
  /// The partitioned write-latch table (DESIGN.md §7): table-name →
  /// exclusive owner txn / shared reader count.
  WriteLatchTable latches_;
  std::mutex listeners_mu_;
  int next_listener_token_ = 1;
  std::vector<std::pair<int, ChangeListener>> listeners_;
  std::atomic<uint64_t> statements_executed_{0};
  std::atomic<bool> closed_{false};
  ExecOptions exec_;
  bool sync_on_commit_ = false;
  bool group_commit_ = true;
  /// Retained hash-join build tables, shared by every session; bounded by
  /// the pager's frame budget.
  JoinBuildCache join_builds_{&pager_};
  /// The embedded default session Database::Execute runs on — the
  /// single-connection API every pre-multi-writer caller uses. Declared
  /// last: it only stores the back-pointer.
  Session default_session_{this};
};

}  // namespace dataspread

#endif  // DATASPREAD_DB_DATABASE_H_
