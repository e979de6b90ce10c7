#include "analyze/analyze_core.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>

namespace dosm::analyze {
namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool is_sort_name(std::string_view s) {
  return s == "sort" || s == "stable_sort" || s == "partial_sort" ||
         s == "nth_element" || s == "canonical_sort";
}

bool is_emit_method(std::string_view s) {
  return s == "push_back" || s == "emplace_back" || s == "push_front" ||
         s == "append" || s == "write";
}

struct Resolved {
  VarInfo info;
  // Index of the local scope the name was found in, or -1 for class members /
  // globals ("outside any function scope").
  int scope_idx = -1;
  bool found = false;
  bool is_member = false;
  bool is_global = false;
};

// Innermost-loop bookkeeping.
struct LoopInfo {
  bool unordered = false;
  std::string range_desc;
  int line = 0;
  std::size_t body_end = 0;     // token index just past the loop body
  std::size_t locals_depth = 0; // locals_.size() at loop entry
};

// Selection-statement context for the argmax heuristic.
enum class SelCtx { kNone, kArgmax, kTiebroken };

class Walker {
 public:
  Walker(std::string_view rel_path, const std::vector<Tok>& toks,
         const std::vector<std::string>& raw_lines,
         const std::vector<AllowEntry>& allow, const AnalyzeOptions& opts,
         bool race_scope, const FileIndex& file_idx, const TreeIndex& tree,
         std::vector<Violation>* out, std::vector<LockEdge>* edges)
      : rel_(rel_path),
        toks_(toks),
        raw_lines_(raw_lines),
        allow_(allow),
        opts_(opts),
        race_scope_(race_scope),
        file_idx_(file_idx),
        tree_(tree),
        out_(out),
        edges_(edges) {
    for (const auto& [suffix, type] : opts_.throw_contracts)
      if (scan::ends_with(rel_, suffix)) file_throw_type_ = type;
    compute_matches();
  }

  void run() { walk_outer(0, toks_.size(), ""); }

 private:
  // -- infrastructure -------------------------------------------------------

  void compute_matches() {
    match_.assign(toks_.size(), kNpos);
    std::vector<std::size_t> paren, brace, bracket;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const std::string& t = toks_[i].text;
      if (t == "(") paren.push_back(i);
      else if (t == "[") bracket.push_back(i);
      else if (t == "{") brace.push_back(i);
      else if (t == ")" && !paren.empty()) {
        match_[paren.back()] = i;
        paren.pop_back();
      } else if (t == "]" && !bracket.empty()) {
        match_[bracket.back()] = i;
        bracket.pop_back();
      } else if (t == "}" && !brace.empty()) {
        match_[brace.back()] = i;
        brace.pop_back();
      }
    }
  }

  void add(const char* rule, int line, std::string detail) {
    if (scan::allowed(allow_, rule, rel_)) return;
    if (line >= 1 && static_cast<std::size_t>(line) <= raw_lines_.size() &&
        scan::has_inline_allow(raw_lines_[static_cast<std::size_t>(line) - 1],
                               "analyze", rule))
      return;
    out_->push_back(Violation{std::string(rel_), line, rule, std::move(detail)});
  }

  Resolved resolve(const std::string& name) const {
    Resolved r;
    for (std::size_t s = locals_.size(); s-- > 0;) {
      auto it = locals_[s].find(name);
      if (it != locals_[s].end()) {
        r.info = it->second;
        r.scope_idx = static_cast<int>(s);
        r.found = true;
        return r;
      }
    }
    if (!cur_cls_.empty()) {
      auto cit = tree_.classes.find(cur_cls_);
      if (cit != tree_.classes.end()) {
        auto mit = cit->second.members.find(name);
        if (mit != cit->second.members.end()) {
          r.info = mit->second;
          r.found = r.is_member = true;
          return r;
        }
      }
    }
    auto git = file_idx_.globals.find(name);
    if (git == file_idx_.globals.end()) git = tree_.globals.find(name);
    else {
      r.info = git->second;
      r.found = r.is_global = true;
      return r;
    }
    if (git != tree_.globals.end()) {
      r.info = git->second;
      r.found = r.is_global = true;
      return r;
    }
    return r;
  }

  // Resolves a member name through the whole-tree union (for `obj.member`
  // chains where obj's type is not tracked).
  Resolved resolve_member(const std::string& name) const {
    Resolved r;
    auto it = tree_.members.find(name);
    if (it != tree_.members.end()) {
      r.info = it->second;
      r.found = r.is_member = true;
    }
    return r;
  }

  // Class of an expression like `m`, `flow.ports`, `this->flows_`.
  VarClass expr_class(std::size_t b, std::size_t e) const {
    std::vector<std::string> chain;
    bool call = false;
    for (std::size_t i = b; i < e; ++i) {
      const Tok& t = toks_[i];
      if (t.kind == TokKind::kIdent && !t.ident("this") && !t.ident("std") &&
          !t.ident("const") && !t.ident("auto"))
        chain.push_back(t.text);
      if (t.is("(")) call = true;
    }
    if (chain.empty()) return VarClass::kOther;
    if (call) return VarClass::kOther;  // function result: unknown
    if (chain.size() == 1) {
      const Resolved r = resolve(chain[0]);
      return r.found ? r.info.cls : VarClass::kOther;
    }
    const Resolved r = resolve_member(chain.back());
    return r.found ? r.info.cls : VarClass::kOther;
  }

  const LoopInfo* innermost_unordered() const {
    for (std::size_t i = loops_.size(); i-- > 0;)
      if (loops_[i].unordered) return &loops_[i];
    return nullptr;
  }

  // True when a post-loop sort over `name` exists before the function ends.
  bool sorted_after(const LoopInfo& loop, const std::string& name) const {
    for (std::size_t i = loop.body_end; i + 1 < fn_end_; ++i) {
      if (toks_[i].kind != TokKind::kIdent || !is_sort_name(toks_[i].text))
        continue;
      if (!toks_[i + 1].is("(")) continue;
      const std::size_t close = match_[i + 1];
      if (close == kNpos || close > fn_end_) continue;
      for (std::size_t j = i + 2; j < close; ++j)
        if (toks_[j].ident(name)) return true;
    }
    return false;
  }

  bool is_loop_local(const std::string& name, const LoopInfo& loop) const {
    for (std::size_t s = loop.locals_depth; s < locals_.size(); ++s)
      if (locals_[s].count(name) != 0) return true;
    return false;
  }

  std::string span_text(std::size_t b, std::size_t e) const {
    std::string out;
    for (std::size_t i = b; i < e && i < b + 12; ++i) {
      if (!out.empty() && toks_[i].kind == TokKind::kIdent &&
          toks_[i - 1].kind == TokKind::kIdent)
        out += ' ';
      out += toks_[i].text;
    }
    return out;
  }

  std::string qualify(const std::string& name, const Resolved& r) const {
    if (r.is_member && !cur_cls_.empty()) return cur_cls_ + "::" + name;
    if (r.is_global) return "::" + name;
    return name;
  }

  // -- outer scopes ---------------------------------------------------------

  void walk_outer(std::size_t b, std::size_t e, const std::string& cls) {
    std::size_t i = b;
    while (i < e) {
      const Tok& t = toks_[i];
      if (t.is(";") || t.is(":") || t.is("}")) {
        ++i;
        continue;
      }
      if (t.ident("public") || t.ident("private") || t.ident("protected")) {
        ++i;
        continue;
      }
      if (t.ident("template") && i + 1 < e && toks_[i + 1].is("<")) {
        const std::size_t p = skip_balanced(toks_, i + 1);
        i = p == i + 1 ? i + 2 : p;
        continue;
      }
      if (t.ident("namespace")) {
        std::size_t j = i + 1;
        while (j < e && !toks_[j].is("{") && !toks_[j].is(";")) ++j;
        if (j < e && toks_[j].is("{") && match_[j] != kNpos) {
          walk_outer(j + 1, match_[j], cls);
          i = match_[j] + 1;
        } else {
          i = j + 1;
        }
        continue;
      }
      if (t.ident("class") || t.ident("struct")) {
        std::string name = cls;
        if (i + 1 < e && toks_[i + 1].kind == TokKind::kIdent)
          name = toks_[i + 1].text;
        std::size_t j = i + 1;
        while (j < e && !toks_[j].is("{") && !toks_[j].is(";")) {
          if (toks_[j].is("<")) {
            const std::size_t p = skip_balanced(toks_, j);
            if (p != j) {
              j = p;
              continue;
            }
          }
          ++j;
        }
        if (j < e && toks_[j].is("{") && match_[j] != kNpos) {
          walk_outer(j + 1, match_[j], name);
          i = match_[j] + 1;
        } else {
          i = j + 1;
        }
        continue;
      }
      if (t.ident("enum") || t.ident("union")) {
        std::size_t j = i + 1;
        while (j < e && !toks_[j].is("{") && !toks_[j].is(";")) ++j;
        i = (j < e && toks_[j].is("{") && match_[j] != kNpos) ? match_[j] + 1
                                                             : j + 1;
        continue;
      }
      if (t.ident("using") || t.ident("typedef") || t.ident("friend") ||
          t.ident("static_assert") || t.ident("extern")) {
        while (i < e && !toks_[i].is(";")) {
          if (toks_[i].is("{") && match_[i] != kNpos) i = match_[i];
          ++i;
        }
        continue;
      }

      // Generic outer statement: declaration (ends at ';') or a definition
      // with a body (ends at '{'). Find whichever comes first, skipping
      // template argument lists and balanced (), [].
      std::size_t j = i;
      std::size_t eq = kNpos, paren = kNpos, body = kNpos;
      while (j < e) {
        const std::string& s = toks_[j].text;
        if (s == ";") break;
        if (s == "(" || s == "[") {
          if (paren == kNpos && s == "(") paren = j;
          if (match_[j] == kNpos) {
            ++j;
            continue;
          }
          j = match_[j] + 1;
          continue;
        }
        if (s == "<") {
          const std::size_t p = skip_balanced(toks_, j);
          if (p != j) {
            j = p;
            continue;
          }
        }
        if (s == "=" && eq == kNpos) eq = j;
        if (s == "{") {
          body = j;
          break;
        }
        ++j;
      }
      if (body == kNpos || match_[body] == kNpos) {
        i = j + 1;  // plain declaration; already indexed in pass 1
        continue;
      }
      // Body found. An '=' before the body means this is an initializer
      // (possibly holding a lambda): walk it as a plain function body with
      // no name. Otherwise it is a function definition.
      std::string fn_name, fn_cls = cls;
      std::size_t pb = kNpos, pe = kNpos;
      if (eq == kNpos && paren != kNpos && paren > i &&
          toks_[paren - 1].kind == TokKind::kIdent) {
        fn_name = toks_[paren - 1].text;
        pb = paren + 1;
        pe = match_[paren];
        if (paren >= i + 3 && toks_[paren - 2].is("::") &&
            toks_[paren - 3].kind == TokKind::kIdent)
          fn_cls = toks_[paren - 3].text;
      }
      walk_function(body + 1, match_[body], fn_cls, fn_name, pb, pe);
      i = match_[body] + 1;
    }
  }

  // -- function bodies ------------------------------------------------------

  void register_params(std::size_t pb, std::size_t pe) {
    std::size_t i = pb;
    while (i < pe) {
      std::size_t after = i;
      const auto type = parse_type(toks_, i, after);
      if (type && after < pe && toks_[after].kind == TokKind::kIdent) {
        VarInfo v = *type;
        v.line = toks_[after].line;
        locals_.back()[toks_[after].text] = v;
      }
      // Next parameter: skip to ',' at this level.
      while (i < pe && !toks_[i].is(",")) {
        if ((toks_[i].is("(") || toks_[i].is("[") || toks_[i].is("{")) &&
            match_[i] != kNpos && match_[i] < pe) {
          i = match_[i];
        } else if (toks_[i].is("<")) {
          const std::size_t p = skip_balanced(toks_, i);
          if (p != i && p <= pe) {
            i = p;
            continue;
          }
        }
        ++i;
      }
      if (i < pe) ++i;  // ','
    }
  }

  void walk_function(std::size_t b, std::size_t e, const std::string& cls,
                     const std::string& fn, std::size_t pb, std::size_t pe) {
    const std::string saved_cls = cur_cls_;
    const std::string saved_fn = cur_fn_;
    const std::size_t saved_end = fn_end_;
    const bool saved_validate = validate_ctx_;
    const bool saved_merge = merge_ctx_;

    cur_cls_ = cls;
    cur_fn_ = fn;
    fn_end_ = e;
    merge_ctx_ = fn.find("merge") != std::string::npos ||
                 fn.find("combine") != std::string::npos;
    validate_ctx_ = starts_with(fn, "validate") || starts_with(fn, "Validate");

    locals_.emplace_back();
    if (pb != kNpos && pe != kNpos && pe <= toks_.size()) {
      register_params(pb, pe);
      if (!validate_ctx_) {
        for (std::size_t i = pb; i < pe; ++i) {
          if (toks_[i].kind != TokKind::kIdent) continue;
          const std::string& s = toks_[i].text;
          if (scan::ends_with(s, "Config") || scan::ends_with(s, "Thresholds") ||
              scan::ends_with(s, "Options"))
            validate_ctx_ = true;
        }
      }
    }
    walk_stmts(b, e);
    locals_.pop_back();

    cur_cls_ = saved_cls;
    cur_fn_ = saved_fn;
    fn_end_ = saved_end;
    validate_ctx_ = saved_validate;
    merge_ctx_ = saved_merge;
  }

  void walk_stmts(std::size_t b, std::size_t e) {
    locals_.emplace_back();
    const std::size_t guards_on_entry = held_.size();
    std::size_t i = b;
    while (i < e) {
      const Tok& t = toks_[i];
      if (t.is(";") || t.is(":") || t.is("}")) {
        ++i;
        continue;
      }
      if (t.is("{")) {
        if (match_[i] != kNpos && match_[i] <= e) {
          walk_stmts(i + 1, match_[i]);
          i = match_[i] + 1;
        } else {
          ++i;
        }
        continue;
      }
      if (t.ident("for")) {
        i = handle_for(i, e);
        continue;
      }
      if (t.ident("if")) {
        i = handle_if(i, e);
        continue;
      }
      if (t.ident("while") || t.ident("switch")) {
        std::size_t p = i + 1;
        if (p < e && toks_[p].is("(") && match_[p] != kNpos) {
          process_stmt(p + 1, match_[p]);  // condition can contain bare locks
          i = match_[p] + 1;
        } else {
          ++i;
        }
        continue;
      }
      if (t.ident("do") || t.ident("else") || t.ident("try")) {
        ++i;
        continue;
      }
      if (t.ident("catch")) {
        std::size_t p = i + 1;
        i = (p < e && toks_[p].is("(") && match_[p] != kNpos) ? match_[p] + 1
                                                              : i + 1;
        continue;
      }
      if (t.ident("case") || t.ident("default")) {
        while (i < e && !toks_[i].is(":")) ++i;
        continue;
      }
      // Ordinary statement: scan to ';' at this level. Lambda bodies nested
      // in the statement are walked as blocks; process_stmt skips them.
      std::size_t j = i;
      while (j < e) {
        const std::string& s = toks_[j].text;
        if (s == ";") break;
        if ((s == "(" || s == "[") && match_[j] != kNpos && match_[j] < e) {
          j = match_[j] + 1;
          continue;
        }
        if (s == "{" && match_[j] != kNpos && match_[j] < e) {
          walk_stmts(j + 1, match_[j]);
          j = match_[j] + 1;
          continue;
        }
        if (s == "}") break;
        ++j;
      }
      process_stmt(i, j);
      i = j + 1;
    }
    held_.resize(guards_on_entry);
    locals_.pop_back();
  }

  std::size_t handle_for(std::size_t i, std::size_t e) {
    const std::size_t p = i + 1;
    if (p >= e || !toks_[p].is("(") || match_[p] == kNpos) return i + 1;
    const std::size_t hb = p + 1, he = match_[p];

    LoopInfo info;
    info.line = toks_[i].line;
    std::optional<ParsedDecl> range_decl;

    // Range-for: find ':' at header depth 0.
    std::size_t colon = kNpos;
    for (std::size_t k = hb; k < he; ++k) {
      const std::string& s = toks_[k].text;
      if ((s == "(" || s == "[" || s == "{") && match_[k] != kNpos &&
          match_[k] < he) {
        k = match_[k];
        continue;
      }
      if (s == "<") {
        const std::size_t past = skip_balanced(toks_, k);
        if (past != k && past <= he) {
          k = past - 1;
          continue;
        }
      }
      if (s == ":") {
        colon = k;
        break;
      }
      if (s == ";") break;  // classic for
    }
    // Everything the header declares (range bindings, classic-for iterators)
    // is loop-local: scope it under the loop so `it = c.erase(it)` and
    // friends never look like writes to outer state.
    info.locals_depth = locals_.size();
    locals_.emplace_back();
    if (colon != kNpos) {
      range_decl = parse_decl(toks_, hb);
      const VarClass rc = expr_class(colon + 1, he);
      info.unordered = rc == VarClass::kUnordered;
      info.range_desc = span_text(colon + 1, he);
    } else {
      // Iterator loop: `x.begin()` / `x->begin()` over an unordered container.
      for (std::size_t k = hb; k + 1 < he; ++k) {
        if (toks_[k].kind == TokKind::kIdent &&
            (toks_[k].text == "begin" || toks_[k].text == "cbegin") && k > hb &&
            (toks_[k - 1].is(".") || toks_[k - 1].is("->")) && k >= hb + 2 &&
            toks_[k - 2].kind == TokKind::kIdent) {
          const Resolved r = resolve(toks_[k - 2].text);
          if (r.found && r.info.cls == VarClass::kUnordered) {
            info.unordered = true;
            info.range_desc = toks_[k - 2].text;
          }
        }
      }
      // Classic header also declares/assigns; scan it for bare locks etc.
      process_stmt(hb, he);
    }

    // Body extent.
    std::size_t after = he + 1;
    std::size_t ret;
    std::size_t body_b, body_e;
    if (after < e && toks_[after].is("{") && match_[after] != kNpos) {
      body_b = after + 1;
      body_e = match_[after];
      ret = match_[after] + 1;
    } else {
      body_b = after;
      std::size_t j = after;
      while (j < e && !toks_[j].is(";")) {
        if ((toks_[j].is("(") || toks_[j].is("[")) && match_[j] != kNpos &&
            match_[j] < e) {
          j = match_[j] + 1;
          continue;
        }
        ++j;
      }
      body_e = j + 1;  // include the ';'
      ret = j + 1;
    }
    info.body_end = ret;

    if (range_decl) {
      for (const std::string& name : range_decl->names) {
        VarInfo v = range_decl->info;
        // The element type of an unordered container is itself unordered
        // only for nested cases we do not model; bindings default to kOther
        // unless the decl names a real type.
        locals_.back()[name] = v;
      }
    }
    loops_.push_back(info);
    walk_stmts(body_b, body_e);
    loops_.pop_back();
    locals_.pop_back();
    return ret;
  }

  std::size_t handle_if(std::size_t i, std::size_t e) {
    std::size_t p = i + 1;
    if (p < e && toks_[p].ident("constexpr")) ++p;
    if (p >= e || !toks_[p].is("(") || match_[p] == kNpos) return i + 1;
    const std::size_t cb = p + 1, ce = match_[p];

    bool relational = false, has_or = false;
    for (std::size_t k = cb; k < ce; ++k) {
      const std::string& s = toks_[k].text;
      if (s == "<" || s == ">" || s == "<=" || s == ">=") relational = true;
      if (s == "||") has_or = true;
    }
    process_stmt(cb, ce);  // bare locks / writes in the condition

    SelCtx ctx = SelCtx::kNone;
    if (relational && innermost_unordered() != nullptr)
      ctx = has_or ? SelCtx::kTiebroken : SelCtx::kArgmax;

    // Body extent (braced or single statement).
    std::size_t after = ce + 1;
    std::size_t body_b, body_e, ret;
    if (after < e && toks_[after].is("{") && match_[after] != kNpos) {
      body_b = after + 1;
      body_e = match_[after];
      ret = match_[after] + 1;
    } else {
      body_b = after;
      std::size_t j = after;
      while (j < e && !toks_[j].is(";")) {
        if ((toks_[j].is("(") || toks_[j].is("[") || toks_[j].is("{")) &&
            match_[j] != kNpos && match_[j] < e) {
          j = match_[j] + 1;
          continue;
        }
        ++j;
      }
      body_e = j + 1;
      ret = j + 1;
    }
    sel_.push_back(ctx);
    walk_stmts(body_b, body_e);
    sel_.pop_back();
    return ret;
  }

  // -- per-statement checks -------------------------------------------------

  void process_stmt(std::size_t b, std::size_t e) {
    if (b >= e) return;

    // Declarations: register locals; lock guards acquire mutexes.
    if (toks_[b].kind == TokKind::kIdent) {
      if (auto decl = parse_decl(toks_, b)) {
        for (const std::string& name : decl->names) {
          VarInfo v = decl->info;
          if (v.line == 0) v.line = toks_[b].line;
          locals_.back()[name] = v;
        }
        if (decl->info.cls == VarClass::kGuard) acquire_guard(*decl, b);
        return;
      }
    }

    if (toks_[b].ident("throw")) {
      check_throw(b, e);
      return;
    }

    check_bare_lock(b, e);
    check_assignment(b, e);
    check_emission(b, e);
  }

  void acquire_guard(const ParsedDecl& decl, std::size_t b) {
    std::vector<std::string> mutexes;
    for (const std::string& ident : decl.init_idents) {
      const Resolved r = resolve(ident);
      if (r.found && r.info.cls == VarClass::kMutex)
        mutexes.push_back(qualify(ident, r));
    }
    if (mutexes.empty() && !decl.init_idents.empty())
      mutexes.push_back(decl.init_idents.front());
    const int line = toks_[b].line;
    for (const std::string& m : mutexes) {
      if (edges_ != nullptr)
        for (const std::string& h : held_)
          edges_->push_back(LockEdge{h, m, std::string(rel_), line});
    }
    held_.insert(held_.end(), mutexes.begin(), mutexes.end());
  }

  void check_throw(std::size_t b, std::size_t e) {
    if (b + 1 >= e || toks_[b + 1].is(";")) return;  // rethrow
    // Thrown type: last identifier of the qualified name before '(' or '{'.
    std::string type;
    for (std::size_t i = b + 1; i < e; ++i) {
      if (toks_[i].is("(") || toks_[i].is("{")) break;
      if (toks_[i].kind == TokKind::kIdent && !toks_[i].ident("std"))
        type = toks_[i].text;
    }
    if (type.empty()) return;
    const int line = toks_[b].line;
    if (!file_throw_type_.empty() && type != file_throw_type_) {
      add("throw-contract", line,
          "this file may only throw " + file_throw_type_ + ", found throw " +
              type);
      return;
    }
    if (file_throw_type_.empty() && validate_ctx_ &&
        type != "invalid_argument") {
      add("throw-contract", line,
          "config validation must throw std::invalid_argument, found throw " +
              type + " (in " + (cur_fn_.empty() ? "function" : cur_fn_) + ")");
    }
  }

  void check_bare_lock(std::size_t b, std::size_t e) {
    for (std::size_t i = b; i + 2 < e; ++i) {
      if (toks_[i].kind != TokKind::kIdent) continue;
      if (!toks_[i + 1].is(".") && !toks_[i + 1].is("->")) continue;
      const std::string& method = toks_[i + 2].text;
      if (method != "lock" && method != "unlock" && method != "try_lock")
        continue;
      if (i + 3 >= e || !toks_[i + 3].is("(")) continue;
      const Resolved r = resolve(toks_[i].text);
      if (!r.found || r.info.cls != VarClass::kMutex) continue;
      add("bare-lock", toks_[i].line,
          "bare ." + method + "() on mutex '" + toks_[i].text +
              "'; use std::lock_guard / std::scoped_lock so unlock is "
              "exception-safe");
    }
  }

  void check_assignment(std::size_t b, std::size_t e) {
    // Find the top-level assignment (parens/brackets were already jumped by
    // the statement scanner, but this range may still contain them).
    std::size_t op = kNpos;
    bool incdec = false;
    for (std::size_t i = b; i < e; ++i) {
      const std::string& s = toks_[i].text;
      if ((s == "(" || s == "[" || s == "{") && match_[i] != kNpos &&
          match_[i] < e) {
        i = match_[i];
        continue;
      }
      if (s == "=" || s == "+=" || s == "-=" || s == "*=" || s == "/=" ||
          s == "%=" || s == "|=" || s == "&=" || s == "^=" || s == "<<=" ||
          s == ">>=") {
        op = i;
        break;
      }
      if (s == "++" || s == "--") {
        op = i;
        incdec = true;
        break;
      }
    }
    if (op == kNpos) return;

    // LHS target: root identifier plus final member name of the access chain.
    std::size_t lb = b, le = op;
    if (incdec && op == b) {  // pre-increment: target follows the operator
      lb = b + 1;
      le = e;
    }
    std::string root, last;
    bool keyed = false, via_deref = false, via_this = false;
    for (std::size_t i = lb; i < le; ++i) {
      const Tok& t = toks_[i];
      if (t.is("*") && root.empty()) via_deref = true;
      if (t.is("[")) {
        keyed = true;
        if (match_[i] != kNpos && match_[i] < le) i = match_[i];
        continue;
      }
      if (t.ident("this")) {
        via_this = true;
        continue;
      }
      if (t.kind == TokKind::kIdent) {
        if (root.empty()) root = t.text;
        last = t.text;
      }
    }
    if (root.empty() || via_deref) return;
    if (incdec && last != root && lb == b) {
      // post-increment `x++`: chain ends at the operator, fine as-is.
    }

    // A chain write (`obj.field = ...`) stores into obj: locality (is this
    // loop-local? is it a member/global?) follows the ROOT, while the value
    // class (float? integral? container?) follows the final member when the
    // tree index knows it.
    const Resolved root_res = via_this ? Resolved{} : resolve(root);
    Resolved target;
    std::string target_name = root;
    if (via_this) {
      target = resolve_member(last);
      target_name = last;
    } else if (root_res.found) {
      target = root_res;
      if (root != last) {
        const Resolved m = resolve_member(last);
        if (m.found) {
          target.info.cls = m.info.cls;
          target.info.is_const = m.info.is_const;
          target_name = last;
        }
      }
    } else if (root != last) {
      // Unknown root with a known member name: assume a member write.
      target = resolve_member(last);
      target_name = last;
    }
    const int line = toks_[lb].line;
    const std::string& optext = toks_[op].text;

    check_race_write(target, target_name, via_this, line);

    // Ordered-emission / float-accumulation inside unordered iteration.
    const LoopInfo* loop = innermost_unordered();
    const bool in_merge = merge_ctx_;
    if (loop == nullptr && !in_merge) return;
    if (!target.found) return;
    const bool outside_loop =
        loop != nullptr &&
        (target.is_member || target.is_global ||
         target.scope_idx < static_cast<int>(loop->locals_depth));

    if (optext == "+=" || optext == "-=") {
      if (target.info.cls == VarClass::kFloat &&
          ((loop != nullptr && outside_loop) || in_merge)) {
        add("float-accumulation", line,
            "floating-point accumulation into '" + target_name + "'" +
                (loop != nullptr && outside_loop
                     ? " inside unordered iteration over " + loop->range_desc
                     : " at a merge boundary") +
                "; summation order changes the result bits — accumulate "
                "integrals or sort first");
        return;
      }
      if (loop == nullptr || !outside_loop) return;
      if (target.info.cls == VarClass::kIntegral ||
          target.info.cls == VarClass::kAtomic)
        return;  // commutative
      if (target.info.cls == VarClass::kOrderedContainer &&
          !sorted_after(*loop, target_name)) {
        add("ordered-emission", line,
            "order-sensitive append to '" + target_name +
                "' inside unordered iteration over " + loop->range_desc +
                " (line " + std::to_string(loop->line) +
                ") with no later sort; emit in hash order is nondeterministic");
      }
      return;
    }
    if (incdec || loop == nullptr || !outside_loop) return;

    // Plain overwrite.
    const SelCtx sel = sel_.empty() ? SelCtx::kNone : sel_.back();
    if (sel == SelCtx::kTiebroken) return;
    if (sel == SelCtx::kArgmax && optext == "=") {
      add("ordered-emission", line,
          "selection over unordered iteration (loop line " +
              std::to_string(loop->line) + ", range " + loop->range_desc +
              ") assigns '" + target_name +
              "' under a bare comparison; ties resolve in hash order — add a "
              "total-order tie-break");
      return;
    }
    if (optext != "=") return;
    if (keyed) return;  // keyed store: position independent of iteration order
    // RHS referencing the loop element means last-write-wins in hash order.
    bool rhs_literal = true, rhs_loop_dep = false;
    for (std::size_t i = op + 1; i < e; ++i) {
      const Tok& t = toks_[i];
      if (t.kind == TokKind::kIdent) {
        if (!t.ident("true") && !t.ident("false") && !t.ident("nullptr"))
          rhs_literal = false;
        if (is_loop_local(t.text, *loop)) rhs_loop_dep = true;
      } else if (t.kind != TokKind::kNumber && !t.is(";") && !t.is("-")) {
        rhs_literal = false;
      }
    }
    if (rhs_literal || !rhs_loop_dep) return;  // idempotent or loop-invariant
    add("ordered-emission", line,
        "overwrite of '" + target_name +
            "' with loop-dependent value inside unordered iteration over " +
            loop->range_desc + " (line " + std::to_string(loop->line) +
            "); the surviving value depends on hash order");
  }

  void check_race_write(const Resolved& target, const std::string& name,
                        bool via_this, int line) {
    if (!race_scope_ || !target.found || !held_.empty()) return;
    const VarInfo& v = target.info;
    if (v.is_const || v.is_thread_local) return;
    if (v.cls == VarClass::kAtomic || v.cls == VarClass::kMutex ||
        v.cls == VarClass::kGuard)
      return;
    if (target.is_global) {
      add("shared-state-race", line,
          "write to mutable namespace-scope state '" + name +
              "' without a lock guard in concurrency-reachable code; guard "
              "it, make it atomic, or thread_local");
      return;
    }
    if (!target.is_global && !target.is_member && v.is_static) {
      add("shared-state-race", line,
          "write to function-local static '" + name +
              "' without a lock guard in concurrency-reachable code");
      return;
    }
    if ((target.is_member || via_this) && !cur_cls_.empty() &&
        cur_fn_ != cur_cls_) {  // ctors/dtors run before sharing starts
      auto it = tree_.classes.find(cur_cls_);
      if (it != tree_.classes.end() && it->second.has_mutex &&
          it->second.members.count(name) != 0) {
        add("shared-state-race", line,
            "member '" + name + "' of mutex-owning class " + cur_cls_ +
                " written without holding a guard");
      }
    }
  }

  void check_emission(std::size_t b, std::size_t e) {
    const LoopInfo* loop = innermost_unordered();
    if (loop == nullptr) return;

    // Stream emission: `os << ...` where os is an ostream (or std::cout).
    bool has_shift = false;
    for (std::size_t i = b; i < e; ++i)
      if (toks_[i].is("<<")) has_shift = true;
    if (has_shift && toks_[b].kind == TokKind::kIdent) {
      std::string root = toks_[b].text;
      std::size_t rb = b;
      if (toks_[b].ident("std") && b + 2 < e && toks_[b + 1].is("::")) {
        root = toks_[b + 2].text;
        rb = b + 2;
      }
      const bool std_stream =
          root == "cout" || root == "cerr" || root == "clog";
      const Resolved r = resolve(root);
      if (std_stream || (r.found && r.info.cls == VarClass::kOStream)) {
        add("ordered-emission", toks_[rb].line,
            "stream emission to '" + root +
                "' inside unordered iteration over " + loop->range_desc +
                " (line " + std::to_string(loop->line) +
                "); output order is hash order — collect and sort first");
        return;
      }
    }

    for (std::size_t i = b; i + 1 < e; ++i) {
      if (toks_[i].kind != TokKind::kIdent) continue;
      // Callback invocation: `cb(...)` where cb is a std::function.
      if (toks_[i + 1].is("(") &&
          (i == b || (!toks_[i - 1].is(".") && !toks_[i - 1].is("->") &&
                      !toks_[i - 1].is("::")))) {
        const Resolved r = resolve(toks_[i].text);
        if (r.found && r.info.cls == VarClass::kStdFunction) {
          add("ordered-emission", toks_[i].line,
              "callback '" + toks_[i].text +
                  "' invoked inside unordered iteration over " +
                  loop->range_desc + " (line " + std::to_string(loop->line) +
                  "); events are emitted in hash order — buffer and sort, or "
                  "allow explicitly if every consumer re-sorts");
          continue;
        }
      }
      // Order-sensitive append: `out.push_back(...)` into an outer ordered
      // container with no later sort.
      if ((toks_[i + 1].is(".") || toks_[i + 1].is("->")) && i + 3 < e &&
          toks_[i + 2].kind == TokKind::kIdent &&
          is_emit_method(toks_[i + 2].text) && toks_[i + 3].is("(")) {
        const std::string& recv = toks_[i].text;
        const Resolved r = resolve(recv);
        if (!r.found) continue;
        const bool outside = r.is_member || r.is_global ||
                             r.scope_idx < static_cast<int>(loop->locals_depth);
        if (!outside) continue;
        if (r.info.cls == VarClass::kOStream) {
          add("ordered-emission", toks_[i].line,
              "write to stream '" + recv +
                  "' inside unordered iteration over " + loop->range_desc +
                  "; output order is hash order");
          continue;
        }
        if (r.info.cls != VarClass::kOrderedContainer) continue;
        if (sorted_after(*loop, recv)) continue;
        add("ordered-emission", toks_[i].line,
            "append to '" + recv + "' inside unordered iteration over " +
                loop->range_desc + " (line " + std::to_string(loop->line) +
                ") with no later sort over '" + recv +
                "'; element order is hash order");
      }
    }
  }

  // -- fields ---------------------------------------------------------------

  std::string_view rel_;
  const std::vector<Tok>& toks_;
  const std::vector<std::string>& raw_lines_;
  const std::vector<AllowEntry>& allow_;
  const AnalyzeOptions& opts_;
  bool race_scope_;
  const FileIndex& file_idx_;
  const TreeIndex& tree_;
  std::vector<Violation>* out_;
  std::vector<LockEdge>* edges_;

  std::vector<std::size_t> match_;
  std::vector<std::unordered_map<std::string, VarInfo>> locals_;
  std::vector<LoopInfo> loops_;
  std::vector<SelCtx> sel_;
  std::vector<std::string> held_;  // mutexes currently guarded, in order
  std::string cur_cls_;
  std::string cur_fn_;
  std::size_t fn_end_ = 0;
  bool validate_ctx_ = false;
  bool merge_ctx_ = false;
  std::string file_throw_type_;
};

}  // namespace

TreeIndex index_tree(const std::vector<scan::SourceFile>& files) {
  TreeIndex tree;
  for (const scan::SourceFile& f : files) {  // load_tree sorts by rel_path
    const std::string blanked = scan::blank_comments_and_literals(f.contents);
    tree.files[f.rel_path] = build_index(lex(blanked), f.contents);
  }
  std::vector<std::string> paths;
  paths.reserve(tree.files.size());
  for (const auto& [path, idx] : tree.files) paths.push_back(path);
  std::sort(paths.begin(), paths.end());
  auto merge_var = [](std::unordered_map<std::string, VarInfo>& into,
                      const std::string& name, const VarInfo& v) {
    auto it = into.find(name);
    if (it == into.end()) {
      into.emplace(name, v);
      return;
    }
    // A classified declaration beats an unknown one; on genuine cross-class
    // collisions, unordered wins so the determinism checks stay conservative
    // (a vector member named like an unordered member elsewhere must not
    // mask hash-order iteration).
    if ((it->second.cls == VarClass::kOther && v.cls != VarClass::kOther) ||
        (v.cls == VarClass::kUnordered &&
         it->second.cls != VarClass::kUnordered))
      it->second = v;
  };
  for (const std::string& path : paths) {
    const FileIndex& idx = tree.files[path];
    std::vector<std::string> cls_names;
    for (const auto& [name, cls] : idx.classes) cls_names.push_back(name);
    std::sort(cls_names.begin(), cls_names.end());
    for (const std::string& cname : cls_names) {
      const ClassInfo& cls = idx.classes.at(cname);
      ClassInfo& merged = tree.classes[cname];
      merged.has_mutex = merged.has_mutex || cls.has_mutex;
      std::vector<std::string> mnames;
      for (const auto& [name, v] : cls.members) mnames.push_back(name);
      std::sort(mnames.begin(), mnames.end());
      for (const std::string& m : mnames) {
        merge_var(merged.members, m, cls.members.at(m));
        merge_var(tree.members, m, cls.members.at(m));
      }
    }
    std::vector<std::string> gnames;
    for (const auto& [name, v] : idx.globals) gnames.push_back(name);
    std::sort(gnames.begin(), gnames.end());
    for (const std::string& g : gnames)
      merge_var(tree.globals, g, idx.globals.at(g));
  }
  return tree;
}

std::vector<Violation> analyze_source(std::string_view rel_path,
                                      std::string_view contents,
                                      const std::vector<AllowEntry>& allow,
                                      const AnalyzeOptions& opts,
                                      bool race_scope, const TreeIndex& tree,
                                      std::vector<LockEdge>* lock_edges) {
  std::vector<Violation> out;
  const std::string blanked = scan::blank_comments_and_literals(contents);
  const std::vector<Tok> toks = lex(blanked);
  const std::vector<std::string> raw_lines = scan::split_lines(contents);
  static const FileIndex kEmpty;
  auto it = tree.files.find(std::string(rel_path));
  const FileIndex& idx = it != tree.files.end() ? it->second : kEmpty;
  Walker walker(rel_path, toks, raw_lines, allow, opts, race_scope, idx, tree,
                &out, lock_edges);
  walker.run();
  scan::sort_violations(out);
  return out;
}

std::vector<Violation> lock_order_violations(
    const std::vector<LockEdge>& edges) {
  // Deterministic cycle search over the acquired-before digraph: sorted
  // adjacency, DFS from sorted roots, first back edge reported.
  std::map<std::string, std::set<std::string>> adj;
  std::map<std::pair<std::string, std::string>, const LockEdge*> site;
  for (const LockEdge& e : edges) {
    adj[e.before].insert(e.after);
    auto key = std::make_pair(e.before, e.after);
    auto it = site.find(key);
    if (it == site.end() ||
        std::tie(e.file, e.line) < std::tie(it->second->file, it->second->line))
      site[key] = &e;
  }
  std::vector<Violation> out;
  std::set<std::string> done;
  std::vector<std::string> path;
  std::set<std::string> on_path;

  std::function<bool(const std::string&)> dfs = [&](const std::string& n) {
    if (on_path.count(n) != 0) {
      // Found a cycle: n .. back to n.
      std::string desc;
      auto start = std::find(path.begin(), path.end(), n);
      for (auto it2 = start; it2 != path.end(); ++it2) desc += *it2 + " -> ";
      desc += n;
      const LockEdge* rep = site[{path.back(), n}];
      out.push_back(Violation{
          rep != nullptr ? rep->file : "", rep != nullptr ? rep->line : 0,
          "lock-order",
          "inconsistent mutex acquisition order: " + desc +
              "; pick one global order or use std::scoped_lock"});
      return true;
    }
    if (done.count(n) != 0) return false;
    on_path.insert(n);
    path.push_back(n);
    bool found = false;
    auto it = adj.find(n);
    if (it != adj.end())
      for (const std::string& m : it->second)
        if (dfs(m)) {
          found = true;
          break;
        }
    path.pop_back();
    on_path.erase(n);
    done.insert(n);
    return found;
  };
  for (const auto& [n, succ] : adj)
    if (done.count(n) == 0 && dfs(n)) break;  // one cycle is enough to act on
  return out;
}

std::vector<Violation> analyze_tree(const std::string& root,
                                    const std::vector<std::string>& subdirs,
                                    const std::vector<AllowEntry>& allow,
                                    const AnalyzeOptions& opts) {
  const std::vector<scan::SourceFile> files = scan::load_tree(root, subdirs);
  const TreeIndex tree = index_tree(files);

  // Shared-state-race scope: race roots plus their quoted-include closure.
  std::set<std::string> paths;
  for (const scan::SourceFile& f : files) paths.insert(f.rel_path);
  std::set<std::string> race;
  std::vector<std::string> work;
  for (const scan::SourceFile& f : files)
    for (const std::string& prefix : opts.race_roots)
      if (starts_with(f.rel_path, prefix) && race.insert(f.rel_path).second)
        work.push_back(f.rel_path);
  auto resolve_include = [&](const std::string& from,
                             const std::string& target) -> std::string {
    const std::size_t slash = from.find('/');
    if (slash != std::string::npos) {
      const std::string sibling = from.substr(0, slash + 1) + target;
      if (paths.count(sibling) != 0) return sibling;
    }
    if (paths.count(target) != 0) return target;
    const std::size_t dir = from.rfind('/');
    if (dir != std::string::npos) {
      const std::string local = from.substr(0, dir + 1) + target;
      if (paths.count(local) != 0) return local;
    }
    return "";
  };
  while (!work.empty()) {
    const std::string f = work.back();
    work.pop_back();
    auto it = tree.files.find(f);
    if (it == tree.files.end()) continue;
    for (const std::string& inc : it->second.includes) {
      const std::string hit = resolve_include(f, inc);
      if (!hit.empty() && race.insert(hit).second) work.push_back(hit);
    }
  }

  std::vector<Violation> out;
  std::vector<LockEdge> edges;
  std::vector<std::string> rel_paths;
  for (const scan::SourceFile& f : files) {
    rel_paths.push_back(f.rel_path);
    auto v = analyze_source(f.rel_path, f.contents, allow, opts,
                            race.count(f.rel_path) != 0, tree, &edges);
    out.insert(out.end(), v.begin(), v.end());
  }
  for (Violation& v : lock_order_violations(edges)) {
    if (scan::allowed(allow, v.rule, v.file)) continue;
    out.push_back(std::move(v));
  }
  for (const AllowEntry& e : scan::stale_entries(allow, rel_paths)) {
    out.push_back(Violation{
        "tools/analyze_allowlist.txt", 0, "stale-allowlist",
        "allowlist entry '" + e.rule + " " + e.path_suffix +
            "' matches no scanned file; prune it"});
  }
  scan::sort_violations(out);
  return out;
}

}  // namespace dosm::analyze
