#include "db/database.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <shared_mutex>
#include <unordered_set>

#include "catalog/catalog_codec.h"
#include "common/str_util.h"
#include "exec/binder.h"
#include "exec/expr_eval.h"
#include "exec/key_match.h"
#include "exec/planner.h"
#include "sql/parser.h"

namespace dataspread {

namespace {

/// The scan path of UPDATE and DELETE: calls `fn` on every row `where` (null =
/// all) selects, in display order, stopping at the first error.
Status ScanWhere(const Table& table, const sql::Expr* where,
                 const std::function<Status(size_t pos, const Row&)>& fn) {
  Status status = Status::OK();
  table.Scan([&](size_t pos, const Row& row) {
    if (where != nullptr) {
      auto pass = EvalPredicate(*where, &row);
      if (!pass.ok()) {
        status = pass.status();
        return false;
      }
      if (!pass.value()) return true;
    }
    status = fn(pos, row);
    return status.ok();
  });
  return status;
}

/// Evaluates a bound expression with no input row (literals, RANGEVALUE
/// snapshots, scalar functions thereof).
Result<Value> EvalConstant(const sql::Expr& e) { return EvalScalar(e, nullptr); }

/// The read set of a SELECT as write-latch keys (lower-cased table names):
/// the FROM table plus every join table. Range tables resolve outside the
/// catalog and need no latch. Duplicates are kept — AcquireShared counts
/// them symmetrically with ReleaseShared.
void CollectTableNames(const sql::SelectStmt& stmt,
                       std::vector<std::string>* out) {
  if (stmt.from.has_value() && stmt.from->kind == sql::TableRef::Kind::kNamed) {
    out->push_back(ToLower(stmt.from->name));
  }
  for (const sql::JoinClause& j : stmt.joins) {
    if (j.table.kind == sql::TableRef::Kind::kNamed) {
      out->push_back(ToLower(j.table.name));
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// WriteGuard: one DML statement's latch bookkeeping
// ---------------------------------------------------------------------------

/// Statement-scoped write/read latching for one DML statement on one
/// session. Constructed before the statement's StatementScope so its
/// destructor runs *after* the scope's: on every path the WAL bracket
/// closes (commit or abort record appended) strictly before any latch is
/// released. Releasing first would let another transaction's committed
/// records land between this bracket's compensations and its close marker
/// — replay would then reapply our page images over the newer committed
/// ones.
struct Database::WriteGuard {
  WriteGuard(Database& db, Session& session)
      : db_(db), session_(session), autocommit_(!session.txn_open_) {
    // Autocommit statements get a transaction context of their own — the
    // id doubles as the wait-die age, so even a plain INSERT has a well-
    // defined position in the latch order.
    txn_ = autocommit_ ? db.pager_.BeginTxn() : session.txn_id_;
  }

  ~WriteGuard() {
    if (autocommit_ && !committed_) db_.pager_.AbortTxn(txn_);
    ReleaseAll();
  }

  storage::TxnId txn() const { return txn_; }

  /// Acquires `table`'s exclusive write latch. Transaction sessions add it
  /// to the 2PL write set (undo journal + owning context installed on the
  /// table, held to commit/rollback); a wait-die conflict victimizes the
  /// whole transaction before returning the retryable status. Autocommit
  /// conflicts return directly — nothing has been mutated yet, latches
  /// strictly precede mutations.
  Status LatchWrite(Table* table) {
    std::string key = ToLower(table->name());
    const bool holds_nothing = autocommit_
                                   ? (write_latched_.empty() &&
                                      read_latched_.empty())
                                   : session_.latched_.empty();
    Status s = db_.latches_.AcquireExclusive(key, txn_, holds_nothing);
    if (!s.ok()) {
      if (!autocommit_) db_.VictimizeSession(session_);
      return s;
    }
    if (autocommit_) {
      write_latched_.push_back(std::move(key));
      return Status::OK();
    }
    auto& set = session_.latched_;
    if (std::find(set.begin(), set.end(), table) == set.end()) {
      set.push_back(table);
      table->set_undo_journal(&session_.undo_);
      table->set_write_txn(txn_);
    }
    return Status::OK();
  }

  /// Acquires the statement's read set shared, all-or-nothing (see
  /// WriteLatchTable). Statement-scoped for every session kind: released
  /// when the guard dies.
  Status LatchRead(std::vector<std::string> tables) {
    if (tables.empty()) return Status::OK();
    const bool holds_nothing =
        autocommit_ ? write_latched_.empty() : session_.latched_.empty();
    Status s = db_.latches_.AcquireShared(tables, txn_, holds_nothing);
    if (!s.ok()) {
      if (!autocommit_) db_.VictimizeSession(session_);
      return s;
    }
    read_latched_ = std::move(tables);
    return Status::OK();
  }

  /// Statement epilogue after the mutations succeeded. Autocommit: close
  /// the transaction context (the kTxnCommit record) and only then release
  /// the latches; returns the bracket's end boundary for the commit
  /// barrier. Transaction sessions keep their write latches (strict 2PL),
  /// release the statement's read latches, and return 0 — their barrier
  /// moves to COMMIT.
  uint64_t Commit() {
    committed_ = true;
    const uint64_t end = autocommit_ ? db_.pager_.CommitTxn(txn_) : 0;
    ReleaseAll();
    return end;
  }

 private:
  void ReleaseAll() {
    for (const std::string& t : write_latched_) {
      db_.latches_.ReleaseExclusive(t, txn_);
    }
    write_latched_.clear();
    if (!read_latched_.empty()) {
      db_.latches_.ReleaseShared(read_latched_);
      read_latched_.clear();
    }
  }

  Database& db_;
  Session& session_;
  const bool autocommit_;
  storage::TxnId txn_ = 0;
  bool committed_ = false;
  std::vector<std::string> write_latched_;  // autocommit only (txn sessions
                                            // track theirs in the session)
  std::vector<std::string> read_latched_;
};

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::~Session() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (txn_open_) db_->RollbackSessionTxn(*this);
}

Result<ResultSet> Session::Execute(std::string_view sql,
                                   ExternalResolver* resolver) {
  return db_->ExecuteForSession(*this, sql, resolver);
}

// ---------------------------------------------------------------------------
// Database: construction / teardown
// ---------------------------------------------------------------------------

Database::Database(const DatabaseOptions& options)
    : Database(options, LockPairOrDie(options)) {
  if (!pager_.durable()) return;
  Status s = RecoverCatalog();
  if (!s.ok()) {
    // No error channel in a constructor; TryOpen is the graceful path.
    std::fprintf(stderr, "dataspread::Database catalog recovery failed: %s\n",
                 s.ToString().c_str());
    std::abort();
  }
}

Database::Database(const DatabaseOptions& options, storage::FileLock lock)
    : file_lock_(std::move(lock)),
      pager_(options.pager),
      exec_(options.exec),
      sync_on_commit_(options.sync_on_commit),
      group_commit_(options.group_commit) {}

std::string Database::LockPathFor(const DatabaseOptions& options) {
  if (options.pager.wal_path.empty()) return std::string();
  return options.pager.wal_path + ".lock";
}

storage::FileLock Database::LockPairOrDie(const DatabaseOptions& options) {
  storage::FileLock lock;
  std::string path = LockPathFor(options);
  if (!path.empty()) {
    Status s = lock.Acquire(path);
    if (!s.ok()) {
      // No error channel in a constructor: a second live Database on one
      // pair would corrupt it, so this is fail-fast by design. TryOpen is
      // the graceful path.
      std::fprintf(stderr, "dataspread::Database: %s\n", s.message().c_str());
      std::abort();
    }
  }
  return lock;
}

Database::~Database() {
  // A transaction still open on the default session at destruction is
  // rolled back — the pager destructor's checkpoint must not run inside an
  // open bracket, and the never-committed work must not reach disk as if
  // it had committed. (CreateSession() sessions rolled back in their own
  // destructors, which must already have run.)
  if (default_session_.txn_open_) RollbackSessionTxn(default_session_);
  // Capture the final catalog blob while the catalog is still alive: the
  // pager outlives it (member order) and its destructor's checkpoint must
  // carry the full catalog forward.
  if (pager_.durable()) pager_.DetachCatalogProvider();
}

DatabaseOptions Database::DurableOptions(const std::string& base_path,
                                         DatabaseOptions options) {
  options.pager.spill_path = base_path + ".pages";
  options.pager.wal_path = base_path + ".wal";
  options.pager.durable_spill = true;
  return options;
}

std::unique_ptr<Database> Database::Open(const std::string& base_path,
                                         DatabaseOptions options) {
  return std::make_unique<Database>(DurableOptions(base_path,
                                                   std::move(options)));
}

Result<std::unique_ptr<Database>> Database::TryOpen(
    const std::string& base_path, DatabaseOptions options) {
  DatabaseOptions opts = DurableOptions(base_path, std::move(options));
  storage::FileLock lock;
  DS_RETURN_IF_ERROR(lock.Acquire(LockPathFor(opts)));
  // The lock is handed to the constructor pre-acquired (flock from a second
  // descriptor in the same process would conflict with our own lock).
  std::unique_ptr<Database> db(new Database(opts, std::move(lock)));
  // A failure stops recovery before the orphan sweep, which is the first
  // thing it logs. The refused pager then stands down without its closing
  // checkpoint, so the files stay as they were and a later open meets the
  // same failure.
  Status s = db->RecoverCatalog();
  if (!s.ok()) {
    db->pager_.StandDown();
    return s;
  }
  return db;
}

void Database::Close() {
  std::lock_guard<std::recursive_mutex> lock(default_session_.mu_);
  if (closed()) return;
  // An open transaction cannot survive the database: roll it back so the
  // closing checkpoint snapshots only committed state. Other sessions'
  // open transactions simply make the flush a no-op (it declines while
  // brackets are open); they roll back in their own destructors.
  if (default_session_.txn_open_) RollbackSessionTxn(default_session_);
  (void)pager_.FlushAll();
  closed_.store(true, std::memory_order_release);
}

std::unique_ptr<Session> Database::CreateSession() {
  return std::unique_ptr<Session>(new Session(this));
}

Status Database::RecoverCatalog() {
  DS_ASSIGN_OR_RETURN(
      std::vector<RecoveredTable> tables,
      ReplayCatalogState(pager_.recovered_catalog_blob(),
                         pager_.recovered_catalog_records()));
  std::unordered_set<storage::FileId> referenced;
  for (const RecoveredTable& rec : tables) {
    auto table = Table::Attach(rec, &pager_);
    if (!table.ok()) {
      return Status(table.status().code(), "recovering table '" +
                                               rec.desc.name + "': " +
                                               table.status().message());
    }
    referenced.insert(rec.desc.rid_file);
    for (uint64_t f : rec.desc.manifest.files) referenced.insert(f);
    for (const StorageManifest::Group& g : rec.desc.manifest.groups) {
      referenced.insert(g.file);
    }
    DS_ASSIGN_OR_RETURN(Table * adopted,
                        catalog_.AdoptTable(std::move(table).value()));
    AttachForwarding(adopted);
  }
  // Orphan sweep: a crash between a DDL's file creations and its (never
  // durable) catalog record leaves files no descriptor references — legal
  // but dead weight. Dropping them here reclaims their pages and spill
  // space; their kDropFile records make the sweep itself durable.
  for (storage::FileId file : pager_.FileIds()) {
    if (referenced.count(file) == 0) pager_.DropFile(file);
  }
  // From here on every checkpoint snapshot embeds the live catalog.
  pager_.set_catalog_snapshot_provider(
      [this](std::string* out) { catalog_.EncodeSnapshot(out); });
  return Status::OK();
}

size_t Database::Checkpoint() {
  // Quiesce statements: the exclusive schema latch drains every in-flight
  // statement and blocks new ones for the duration of the flush. Open
  // transaction *brackets* (committed statements inside a BEGIN) still
  // decline the checkpoint — FlushAll returns 0 then.
  std::unique_lock<SchemaLatch> schema_lock(schema_mu_);
  return pager_.FlushAll();
}

// ---------------------------------------------------------------------------
// Statement execution
// ---------------------------------------------------------------------------

Result<ResultSet> Database::Execute(std::string_view sql,
                                    ExternalResolver* resolver,
                                    SelectCapture* capture) {
  return ExecuteForSession(default_session_, sql, resolver, capture);
}

Result<ResultSet> Database::ExecuteForSession(Session& session,
                                              std::string_view sql,
                                              ExternalResolver* resolver,
                                              SelectCapture* capture) {
  uint64_t commit_end = 0;
  Result<ResultSet> result = [&]() -> Result<ResultSet> {
    std::lock_guard<std::recursive_mutex> lock(session.mu_);
    if (closed()) {
      return Status::InvalidArgument("database is closed");
    }
    auto parsed = sql::Parse(sql);
    if (!parsed.ok()) {
      // A statement that does not even parse still poisons an open
      // transaction: the client's script went off the rails mid-batch.
      if (session.txn_open_) session.txn_poisoned_ = true;
      return parsed.status();
    }
    sql::Statement stmt = std::move(parsed).value();
    statements_executed_.fetch_add(1, std::memory_order_relaxed);
    session.last_commit_end_lsn_ = 0;
    const bool is_txn_control =
        std::holds_alternative<sql::TransactionStmt>(stmt);
    const bool is_ddl = std::holds_alternative<sql::CreateTableStmt>(stmt) ||
                        std::holds_alternative<sql::DropTableStmt>(stmt) ||
                        std::holds_alternative<sql::AlterTableStmt>(stmt);
    if (session.txn_open_ && !is_txn_control) {
      if (session.txn_poisoned_) {
        return Status::InvalidArgument(
            "current transaction is aborted, commands ignored until ROLLBACK");
      }
      if (is_ddl) {
        // DDL records are individually durable commit points (fsynced as
        // they log) — they cannot ride a bracket a ROLLBACK may abort.
        session.txn_poisoned_ = true;
        return Status::InvalidArgument(
            "DDL inside a multi-statement transaction is not supported");
      }
    }
    auto* select = std::get_if<sql::SelectStmt>(&stmt);
    std::vector<AggGroup>* groups =
        capture != nullptr && select != nullptr ? &capture->groups : nullptr;
    Result<ResultSet> r = [&]() -> Result<ResultSet> {
      if (is_txn_control) {
        return ExecuteTransaction(session,
                                  std::get<sql::TransactionStmt>(stmt));
      }
      if (is_ddl) {
        // DDL excludes every statement on every session: the catalog's
        // structure only changes in a quiesced world.
        std::unique_lock<SchemaLatch> schema_lock(schema_mu_);
        return Dispatch(session, stmt, resolver, nullptr);
      }
      // Queries and DML run under the shared schema latch: the name→table
      // map is stable for the statement; row-level coordination is the
      // write-latch table's job.
      std::shared_lock<SchemaLatch> schema_lock(schema_mu_);
      return Dispatch(session, stmt, resolver, groups);
    }();
    if (r.ok() && groups != nullptr) {
      // Moving the statement keeps its expression nodes in place: the
      // captured groups' states point into them.
      capture->stmt = std::make_unique<sql::SelectStmt>(std::move(*select));
    }
    if (!r.ok() && session.txn_open_ && !is_txn_control) {
      // Postgres semantics: any failed statement poisons the transaction;
      // everything but ROLLBACK (or COMMIT, which then rolls back) fails
      // until the client acknowledges the abort. Control-statement errors
      // (nested BEGIN) are protocol noise, not transaction failures.
      session.txn_poisoned_ = true;
    }
    if (r.ok() && sync_on_commit_ && session.last_commit_end_lsn_ != 0) {
      if (group_commit_) {
        // Commit barrier runs *outside* the session mutex (below):
        // concurrent committers reach Wal::SyncThrough together and share
        // one fsync — the group-commit win bench_txn measures.
        commit_end = session.last_commit_end_lsn_;
      } else {
        // Serial baseline: one fsync per commit, inside the lock.
        pager_.SyncWalThrough(session.last_commit_end_lsn_);
      }
    }
    return r;
  }();
  if (commit_end != 0) pager_.SyncWalThrough(commit_end);
  return result;
}

Result<ResultSet> Database::Dispatch(Session& session, sql::Statement& stmt,
                                     ExternalResolver* resolver,
                                     std::vector<AggGroup>* groups) {
  if (auto* s = std::get_if<sql::SelectStmt>(&stmt)) {
    return ExecuteSelect(session, *s, resolver, groups);
  }
  if (auto* s = std::get_if<sql::InsertStmt>(&stmt)) {
    return ExecuteInsert(session, *s, resolver);
  }
  if (auto* s = std::get_if<sql::UpdateStmt>(&stmt)) {
    return ExecuteUpdate(session, *s, resolver);
  }
  if (auto* s = std::get_if<sql::DeleteStmt>(&stmt)) {
    return ExecuteDelete(session, *s, resolver);
  }
  if (auto* s = std::get_if<sql::CreateTableStmt>(&stmt)) {
    return ExecuteCreate(*s);
  }
  if (auto* s = std::get_if<sql::DropTableStmt>(&stmt)) {
    return ExecuteDrop(*s);
  }
  if (auto* s = std::get_if<sql::AlterTableStmt>(&stmt)) {
    return ExecuteAlter(*s, resolver);
  }
  if (auto* s = std::get_if<sql::LockTableStmt>(&stmt)) {
    return ExecuteLockTable(session, *s);
  }
  if (auto* s = std::get_if<sql::TransactionStmt>(&stmt)) {
    return ExecuteTransaction(session, *s);  // normally routed by the caller
  }
  return Status::Internal("unhandled statement kind");
}

Result<ResultSet> Database::ExecuteSelect(Session& session,
                                          sql::SelectStmt& stmt,
                                          ExternalResolver* resolver,
                                          std::vector<AggGroup>* groups) {
  std::vector<std::string> names;
  CollectTableNames(stmt, &names);
  const storage::TxnId txn = session.txn_open_ ? session.txn_id_ : 0;
  // A plain reader holds nothing and may always wait; a transaction's
  // SELECT may wait only while its write set is empty (wait-die).
  const bool may_wait = txn == 0 || session.latched_.empty();
  Status s = latches_.AcquireShared(names, txn, may_wait);
  if (!s.ok()) {
    if (txn != 0) VictimizeSession(session);
    return s;
  }
  auto r = RunSelect(&stmt, catalog_, resolver, exec_, groups, &join_builds_);
  latches_.ReleaseShared(names);
  return r;
}

// ---------------------------------------------------------------------------
// Transaction control
// ---------------------------------------------------------------------------

Result<ResultSet> Database::ExecuteTransaction(
    Session& session, const sql::TransactionStmt& stmt) {
  ResultSet rs;
  switch (stmt.kind) {
    case sql::TransactionStmt::Kind::kBegin:
      if (session.txn_open_) {
        return Status::InvalidArgument(
            "BEGIN inside an open transaction (nesting is not supported)");
      }
      session.txn_open_ = true;
      session.txn_poisoned_ = false;
      session.undo_.Clear();
      // One WAL bracket (txn-id-tagged) spans the whole transaction: the
      // statements inside ride it, so a crash before COMMIT discards every
      // statement. Undo journals install lazily, as write latches are
      // acquired.
      session.txn_id_ = pager_.BeginTxn();
      rs.message = "BEGIN";
      return rs;
    case sql::TransactionStmt::Kind::kCommit: {
      if (!session.txn_open_) {
        return Status::InvalidArgument("COMMIT without an open transaction");
      }
      if (session.txn_poisoned_) {
        // Postgres semantics: committing an aborted transaction rolls it
        // back and reports so, rather than erroring a second time.
        RollbackSessionTxn(session);
        rs.message = "ROLLBACK";
        return rs;
      }
      // Suspend journaling and bracket ownership before closing: the
      // transaction is over for these tables either way.
      for (Table* t : session.latched_) {
        t->set_undo_journal(nullptr);
        t->set_write_txn(0);
      }
      // The transaction's commit barrier: ExecuteForSession syncs through
      // this end boundary under sync_on_commit — the fsync the member
      // statements each skipped. Latches release only *after* the close
      // record: nothing may write these tables' pages between our last
      // record and our commit marker.
      session.last_commit_end_lsn_ = pager_.CommitTxn(session.txn_id_);
      for (Table* t : session.latched_) {
        latches_.ReleaseExclusive(ToLower(t->name()), session.txn_id_);
      }
      session.latched_.clear();
      session.undo_.Clear();
      session.txn_id_ = 0;
      session.txn_open_ = false;
      rs.message = "COMMIT";
      return rs;
    }
    case sql::TransactionStmt::Kind::kRollback:
      if (!session.txn_open_) {
        return Status::InvalidArgument("ROLLBACK without an open transaction");
      }
      RollbackSessionTxn(session);
      rs.message = "ROLLBACK";
      return rs;
  }
  return Status::Internal("unhandled transaction statement kind");
}

Result<ResultSet> Database::ExecuteLockTable(Session& session,
                                             sql::LockTableStmt& stmt) {
  if (!session.txn_open_) {
    return Status::InvalidArgument(
        "LOCK TABLE outside a multi-statement transaction");
  }
  DS_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  ResultSet rs;
  rs.message = "LOCK TABLE " + table->name();
  auto& set = session.latched_;
  if (std::find(set.begin(), set.end(), table) != set.end()) return rs;
  Status s = latches_.AcquireExclusive(ToLower(table->name()),
                                       session.txn_id_, set.empty());
  if (!s.ok()) {
    VictimizeSession(session);
    return s;
  }
  set.push_back(table);
  table->set_undo_journal(&session.undo_);
  table->set_write_txn(session.txn_id_);
  return rs;
}

void Database::RollbackSessionTxn(Session& session) {
  // A deadlock victim arrives here a second time from the client's
  // ROLLBACK with txn_id_ already zeroed — its work was undone eagerly;
  // only the flags remain.
  if (session.txn_id_ != 0) {
    // Suspend capture before undoing: the compensations below must not
    // journal themselves. Bracket ownership stays installed so they ride
    // the transaction's WAL bracket.
    for (Table* t : session.latched_) t->set_undo_journal(nullptr);
    for (auto it = session.undo_.entries.rbegin();
         it != session.undo_.entries.rend(); ++it) {
      UndoJournal::Entry& e = *it;
      Status s = Status::OK();
      switch (e.kind) {
        case UndoJournal::Entry::Kind::kInsert:
          s = e.table->UndoInsertRow(e.pos, e.rid);
          break;
        case UndoJournal::Entry::Kind::kDelete:
          s = e.table->UndoDeleteRow(e.pos, std::move(e.row), e.rid);
          break;
        case UndoJournal::Entry::Kind::kUpdate:
          s = e.table->UndoUpdateCell(e.rid, e.col, std::move(e.old_value));
          break;
      }
      if (!s.ok()) {
        // Undo replays exact before-images over states it has already
        // restored; a failure means the in-memory state is neither the pre-
        // nor the post-transaction one. Same stance as catalog corruption:
        // do not limp on.
        std::fprintf(stderr, "dataspread::Database ROLLBACK failed: %s\n",
                     s.message().c_str());
        std::abort();
      }
    }
    for (Table* t : session.latched_) t->set_write_txn(0);
    // Close the WAL bracket with kTxnAbort: the undo's page mutations were
    // logged inside the bracket as compensations, so replaying it is a net
    // no-op — and if the process dies before this record, recovery discards
    // the open bracket wholesale, which lands in the same state. The close
    // record must land *before* the latches release (below): released
    // first, another transaction's committed records could slot between
    // our compensations and our abort marker, and replay would reapply our
    // images over their newer committed pages.
    pager_.AbortTxn(session.txn_id_);
    for (Table* t : session.latched_) {
      latches_.ReleaseExclusive(ToLower(t->name()), session.txn_id_);
    }
  }
  session.latched_.clear();
  session.undo_.Clear();
  session.txn_id_ = 0;
  session.txn_open_ = false;
  session.txn_poisoned_ = false;
}

void Database::VictimizeSession(Session& session) {
  RollbackSessionTxn(session);
  // The transaction is gone, but the client hasn't acknowledged: keep the
  // session in the Postgres aborted-transaction state — every statement
  // fails until its ROLLBACK, which (txn_id_ == 0) only clears flags.
  session.txn_open_ = true;
  session.txn_poisoned_ = true;
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

Result<ResultSet> Database::ExecuteInsert(Session& session,
                                          sql::InsertStmt& stmt,
                                          ExternalResolver* resolver) {
  DS_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  const Schema& schema = table->schema();

  // Latch order: target exclusive first, then the whole source set shared
  // — before any data is read or written.
  WriteGuard guard(*this, session);
  DS_RETURN_IF_ERROR(guard.LatchWrite(table));
  if (stmt.select != nullptr) {
    std::vector<std::string> sources;
    CollectTableNames(*stmt.select, &sources);
    DS_RETURN_IF_ERROR(guard.LatchRead(std::move(sources)));
  }

  // Column mapping: named list or full schema order.
  std::vector<size_t> target_cols;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) target_cols.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      auto idx = schema.FindColumn(name);
      if (!idx) {
        return Status::NotFound("column '" + name + "' does not exist in " +
                                stmt.table);
      }
      target_cols.push_back(*idx);
    }
  }

  // Phase 1: evaluate every incoming tuple before mutating anything.
  std::vector<Row> incoming;
  if (stmt.select != nullptr) {
    DS_ASSIGN_OR_RETURN(ResultSet sub,
                        RunSelect(stmt.select.get(), catalog_, resolver,
                                  exec_, nullptr, &join_builds_));
    incoming = std::move(sub.rows);
  } else {
    Scope empty;
    for (std::vector<sql::ExprPtr>& value_row : stmt.values) {
      Row row;
      row.reserve(value_row.size());
      for (sql::ExprPtr& e : value_row) {
        DS_RETURN_IF_ERROR(BindExpr(e.get(), empty, resolver,
                                    /*allow_aggregates=*/false));
        DS_ASSIGN_OR_RETURN(Value v, EvalConstant(*e));
        row.push_back(std::move(v));
      }
      incoming.push_back(std::move(row));
    }
  }
  for (const Row& row : incoming) {
    if (row.size() != target_cols.size()) {
      return Status::InvalidArgument(
          "INSERT supplies " + std::to_string(row.size()) + " values for " +
          std::to_string(target_cols.size()) + " columns");
    }
  }

  // Phase 2: append, all rows inside one statement bracket; on a constraint
  // violation roll back the prefix so the statement is atomic. The rollback
  // deletes land inside the bracket too, which then closes with kTxnAbort —
  // a net no-op on replay, and a crash anywhere in between discards the
  // bracket wholesale (DESIGN.md §7).
  storage::StatementScope txn(pager_, guard.txn());
  size_t applied = 0;
  Status failure = Status::OK();
  for (const Row& row : incoming) {
    Row full(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < target_cols.size(); ++i) full[target_cols[i]] = row[i];
    Status s = table->AppendRow(std::move(full));
    if (!s.ok()) {
      failure = s;
      break;
    }
    ++applied;
  }
  if (!failure.ok()) {
    for (size_t i = 0; i < applied; ++i) {
      (void)table->DeleteRowAt(table->num_rows() - 1);
    }
    return failure;
  }
  (void)txn.Commit();
  session.last_commit_end_lsn_ = guard.Commit();
  ResultSet rs;
  rs.affected_rows = applied;
  return rs;
}

Result<ResultSet> Database::ExecuteUpdate(Session& session,
                                          sql::UpdateStmt& stmt,
                                          ExternalResolver* resolver) {
  DS_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  WriteGuard guard(*this, session);
  DS_RETURN_IF_ERROR(guard.LatchWrite(table));
  Scope scope = TableScope(*table);
  std::vector<size_t> target_cols;
  for (auto& [name, expr] : stmt.assignments) {
    auto idx = table->schema().FindColumn(name);
    if (!idx) {
      return Status::NotFound("column '" + name + "' does not exist in " +
                              stmt.table);
    }
    target_cols.push_back(*idx);
    DS_RETURN_IF_ERROR(BindExpr(expr.get(), scope, resolver,
                                /*allow_aggregates=*/false));
  }
  if (stmt.where != nullptr) {
    DS_RETURN_IF_ERROR(BindExpr(stmt.where.get(), scope, resolver,
                                /*allow_aggregates=*/false));
    FoldConstants(stmt.where.get());
  }

  // Key-direct path (DESIGN.md §6a): `WHERE <pk> = <literal>` skips the
  // table scan — the interface-aware point update driving Figure 2c edits.
  if (auto key = MatchKeyEquality(stmt.where.get(), table->schema())) {
    const size_t pk = *table->schema().primary_key_index();
    const DataType pk_type = table->schema().column(pk).type;
    auto row = table->GetRowByKey(*key);
    ResultSet rs;
    if (!row.ok()) {
      if (row.status().code() != StatusCode::kNotFound) return row.status();
      session.last_commit_end_lsn_ = guard.Commit();
      return rs;  // no such key: 0 rows affected
    }
    // Evaluate all assignments against the fetched row, then apply with
    // rollback on a mid-statement failure.
    std::vector<Value> new_values, old_values;
    for (size_t i = 0; i < stmt.assignments.size(); ++i) {
      DS_ASSIGN_OR_RETURN(
          Value v, EvalScalar(*stmt.assignments[i].second, &row.value()));
      new_values.push_back(std::move(v));
      old_values.push_back(row.value()[target_cols[i]]);
    }
    storage::StatementScope txn(pager_, guard.txn());
    for (size_t i = 0; i < new_values.size(); ++i) {
      Status s = table->UpdateByKey(*key, target_cols[i], new_values[i]);
      if (!s.ok()) {
        for (size_t j = i; j-- > 0;) {
          (void)table->UpdateByKey(*key, target_cols[j], old_values[j]);
          if (target_cols[j] == pk) *key = old_values[j];
        }
        return s;  // the scope + guard close the bracket with kTxnAbort
      }
      // Re-key by the value as stored: `SET id = '7'` stores INTEGER 7.
      if (target_cols[i] == pk) *key = new_values[i].CastTo(pk_type).value();
    }
    (void)txn.Commit();
    session.last_commit_end_lsn_ = guard.Commit();
    rs.affected_rows = 1;
    return rs;
  }

  // Phase 1: evaluate all updates against the pre-statement state.
  struct PendingUpdate {
    size_t pos;
    size_t col;
    Value value;
    Value old_value;
  };
  std::vector<PendingUpdate> pending;
  DS_RETURN_IF_ERROR(ScanWhere(
      *table, stmt.where.get(), [&](size_t pos, const Row& row) -> Status {
        for (size_t i = 0; i < stmt.assignments.size(); ++i) {
          DS_ASSIGN_OR_RETURN(Value v,
                              EvalScalar(*stmt.assignments[i].second, &row));
          pending.push_back(PendingUpdate{pos, target_cols[i], std::move(v),
                                          row[target_cols[i]]});
        }
        return Status::OK();
      }));

  // Phase 2: apply inside one statement bracket, with rollback on failure.
  storage::StatementScope txn(pager_, guard.txn());
  size_t applied = 0;
  Status failure = Status::OK();
  for (const PendingUpdate& u : pending) {
    Status s = table->UpdateAt(u.pos, u.col, u.value);
    if (!s.ok()) {
      failure = s;
      break;
    }
    ++applied;
  }
  if (!failure.ok()) {
    for (size_t i = applied; i-- > 0;) {
      (void)table->UpdateAt(pending[i].pos, pending[i].col, pending[i].old_value);
    }
    return failure;
  }
  (void)txn.Commit();
  session.last_commit_end_lsn_ = guard.Commit();
  ResultSet rs;
  size_t assignments = stmt.assignments.empty() ? 1 : stmt.assignments.size();
  rs.affected_rows = pending.size() / assignments;
  return rs;
}

Result<ResultSet> Database::ExecuteDelete(Session& session,
                                          sql::DeleteStmt& stmt,
                                          ExternalResolver* resolver) {
  DS_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  WriteGuard guard(*this, session);
  DS_RETURN_IF_ERROR(guard.LatchWrite(table));
  Scope scope = TableScope(*table);
  if (stmt.where != nullptr) {
    DS_RETURN_IF_ERROR(BindExpr(stmt.where.get(), scope, resolver,
                                /*allow_aggregates=*/false));
    FoldConstants(stmt.where.get());
  }
  std::vector<size_t> positions;
  if (auto key = MatchKeyEquality(stmt.where.get(), table->schema())) {
    // Key-direct path (DESIGN.md §6a): no scan, and no row is built.
    auto pos = table->FindByKey(*key);
    if (pos.ok()) positions.push_back(pos.value());
    if (!pos.ok() && pos.status().code() != StatusCode::kNotFound) {
      return pos.status();
    }
  } else {
    DS_RETURN_IF_ERROR(ScanWhere(*table, stmt.where.get(),
                                 [&](size_t pos, const Row&) {
                                   positions.push_back(pos);
                                   return Status::OK();
                                 }));
  }
  // Delete from the highest position down so earlier positions stay valid,
  // all inside one statement bracket.
  storage::StatementScope txn(pager_, guard.txn());
  for (size_t i = positions.size(); i-- > 0;) {
    DS_RETURN_IF_ERROR(table->DeleteRowAt(positions[i]));
  }
  (void)txn.Commit();
  session.last_commit_end_lsn_ = guard.Commit();
  ResultSet rs;
  rs.affected_rows = positions.size();
  return rs;
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

Status Database::FailIfLatched(const std::string& table) const {
  const uint64_t owner = latches_.ExclusiveOwner(ToLower(table));
  if (owner == 0) return Status::OK();
  return Status::SerializationConflict(
      "table '" + table + "' is write-locked by open transaction " +
      std::to_string(owner) + "; retry after it ends");
}

Result<ResultSet> Database::ExecuteCreate(sql::CreateTableStmt& stmt) {
  if (stmt.if_not_exists && catalog_.HasTable(stmt.table)) {
    ResultSet rs;
    rs.message = "table " + stmt.table + " already exists";
    return rs;
  }
  Schema schema;
  for (const sql::ColumnSpec& spec : stmt.columns) {
    DS_RETURN_IF_ERROR(
        schema.AddColumn(ColumnDef{spec.name, spec.type, spec.primary_key}));
  }
  DS_ASSIGN_OR_RETURN(Table * table,
                      catalog_.CreateTable(stmt.table, std::move(schema)));
  AttachForwarding(table);
  ResultSet rs;
  rs.message = "created table " + table->name();
  return rs;
}

Result<ResultSet> Database::ExecuteDrop(sql::DropTableStmt& stmt) {
  if (stmt.if_exists && !catalog_.HasTable(stmt.table)) {
    ResultSet rs;
    rs.message = "table " + stmt.table + " does not exist";
    return rs;
  }
  DS_RETURN_IF_ERROR(FailIfLatched(stmt.table));
  DS_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  join_builds_.Forget(table);
  DS_RETURN_IF_ERROR(catalog_.DropTable(stmt.table));
  ResultSet rs;
  rs.message = "dropped table " + stmt.table;
  return rs;
}

Result<ResultSet> Database::ExecuteAlter(sql::AlterTableStmt& stmt,
                                         ExternalResolver* resolver) {
  DS_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  DS_RETURN_IF_ERROR(FailIfLatched(stmt.table));
  ResultSet rs;
  switch (stmt.action) {
    case sql::AlterTableStmt::Action::kAddColumn: {
      Value default_value = Value::Null();
      if (stmt.default_value != nullptr) {
        Scope empty;
        DS_RETURN_IF_ERROR(BindExpr(stmt.default_value.get(), empty, resolver,
                                    /*allow_aggregates=*/false));
        DS_ASSIGN_OR_RETURN(default_value, EvalConstant(*stmt.default_value));
      }
      DS_RETURN_IF_ERROR(table->AddColumn(
          ColumnDef{stmt.new_column.name, stmt.new_column.type,
                    stmt.new_column.primary_key},
          default_value));
      rs.message = "added column " + stmt.new_column.name;
      return rs;
    }
    case sql::AlterTableStmt::Action::kDropColumn:
      DS_RETURN_IF_ERROR(table->DropColumn(stmt.column_name));
      rs.message = "dropped column " + stmt.column_name;
      return rs;
    case sql::AlterTableStmt::Action::kRenameColumn:
      DS_RETURN_IF_ERROR(table->RenameColumn(stmt.column_name, stmt.new_name));
      rs.message = "renamed column " + stmt.column_name + " to " + stmt.new_name;
      return rs;
  }
  return Status::Internal("unhandled ALTER action");
}

// ---------------------------------------------------------------------------
// Listeners / direct table API
// ---------------------------------------------------------------------------

int Database::AddChangeListener(ChangeListener listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  int token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(listener));
  return token;
}

void Database::RemoveChangeListener(int token) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->first == token) {
      listeners_.erase(it);
      return;
    }
  }
}

Result<Table*> Database::CreateTable(std::string name, Schema schema,
                                     StorageModel model) {
  std::unique_lock<SchemaLatch> schema_lock(schema_mu_);
  if (closed()) {
    return Status::InvalidArgument("database is closed");
  }
  if (default_session_.txn_open_) {
    return Status::InvalidArgument(
        "DDL inside a multi-statement transaction is not supported");
  }
  DS_ASSIGN_OR_RETURN(Table * table, catalog_.CreateTable(std::move(name),
                                                          std::move(schema),
                                                          model));
  AttachForwarding(table);
  return table;
}

void Database::AttachForwarding(Table* table) {
  table->AddListener([this](const Table& t, const TableChange& change) {
    // Listener vector may be mutated by callbacks; iterate over a copy.
    std::vector<std::pair<int, ChangeListener>> snapshot;
    {
      std::lock_guard<std::mutex> lock(listeners_mu_);
      snapshot = listeners_;
    }
    for (const auto& [token, fn] : snapshot) {
      (void)token;
      fn(t.name(), change);
    }
  });
}

}  // namespace dataspread
