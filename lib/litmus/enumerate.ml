type model = Wmm | Tso

type outcome = (string * int64) list

let outcome_to_string o =
  String.concat " " (List.map (fun (r, v) -> Printf.sprintf "%s=%Ld" r v) o)

type cls = C_load | C_store

let cls_of = function
  | Lang.Load _ -> Some C_load
  | Lang.Store _ -> Some C_store
  | Lang.Fence _ -> None

let fence_orders model f a b =
  match model with
  | Tso -> (
    (* On TSO any full fence restores store->load order; weaker ARM
       fences are treated at full strength when "run" on TSO, which is
       conservative but irrelevant for the catalogue (TSO rows use the
       plain programs). *)
    match f with
    | Lang.F_dmb_full | Lang.F_dsb -> true
    | Lang.F_dmb_st -> a = C_store && b = C_store
    | Lang.F_dmb_ld | Lang.F_isb -> a = C_load)
  | Wmm -> (
    match f with
    | Lang.F_dmb_full | Lang.F_dsb -> true
    | Lang.F_dmb_st -> a = C_store && b = C_store
    (* ctrl+ISB has DMB ld's ordering force: every prior load performs
       before anything later; stores pass it freely. *)
    | Lang.F_dmb_ld | Lang.F_isb -> a = C_load)

(* Must instruction [j] perform before instruction [i] (j < i in
   program order)?  [prog] is the thread's instruction array. *)
let must_order model prog j i =
  let a = prog.(j) and b = prog.(i) in
  match (cls_of a, cls_of b) with
  | None, _ | _, None -> false (* fences are order constraints, not events *)
  | Some ca, Some cb -> (
    let base =
      (* Coherence: same-address accesses stay in program order. *)
      (match (a, b) with
      | Lang.Load { var = va; _ }, Lang.Load { var = vb; _ }
      | Lang.Load { var = va; _ }, Lang.Store { var = vb; _ }
      | Lang.Store { var = va; _ }, Lang.Load { var = vb; _ }
      | Lang.Store { var = va; _ }, Lang.Store { var = vb; _ } ->
        va = vb
      | _ -> false)
      (* Dependencies: b consumes a register written by a. *)
      || (match Lang.writes_reg a with
         | Some r -> List.mem r (Lang.reads_regs b)
         | None -> false)
      (* Acquire: nothing later may perform before an acquire load. *)
      || (match a with Lang.Load { acquire = true; _ } -> true | _ -> false)
      (* Release: a released store performs after everything earlier. *)
      || (match b with Lang.Store { release = true; _ } -> true | _ -> false)
      (* Fences strictly between the two. *)
      || (let rec scan k =
            if k >= i then false
            else
              match prog.(k) with
              | Lang.Fence f when fence_orders model f ca cb -> true
              | _ -> scan (k + 1)
          in
          scan (j + 1))
    in
    match model with
    | Wmm -> base
    | Tso ->
      (* TSO preserves all program order except store -> later load. *)
      base || not (ca = C_store && cb = C_load))

type state = {
  performed : int array; (* bitmask per thread *)
  mem : (string * int64) list; (* sorted assoc *)
  regs : (string * int64) list; (* sorted assoc *)
}

let key s =
  String.concat "|"
    (Array.to_list (Array.map string_of_int s.performed))
  ^ "#"
  ^ outcome_to_string s.mem
  ^ "#"
  ^ outcome_to_string s.regs

let assoc_set k v l =
  let rec go = function
    | [] -> [ (k, v) ]
    | (k', _) :: rest when k' = k -> (k, v) :: rest
    | kv :: rest -> kv :: go rest
  in
  List.sort compare (go l)

let assoc_get k l = match List.assoc_opt k l with Some v -> v | None -> 0L

let enumerate model (t : Lang.test) =
  let progs = List.map Array.of_list t.threads in
  let progs = Array.of_list progs in
  let nthreads = Array.length progs in
  let init_mem =
    List.sort compare (List.map (fun v -> (v, assoc_get v t.init)) (Lang.vars t))
  in
  let seen = Hashtbl.create 1024 in
  let outcomes = Hashtbl.create 64 in
  let reg_name th r = Printf.sprintf "%d:%s" th r in
  (* Registers produced by loads of thread th that are performed. *)
  let reg_resolved st th r =
    let prog = progs.(th) in
    let rec find i =
      if i >= Array.length prog then true (* not produced by a load: treat as resolved *)
      else
        match prog.(i) with
        | Lang.Load { reg; _ } when reg = r -> st.performed.(th) land (1 lsl i) <> 0
        | _ -> find (i + 1)
    in
    find 0
  in
  let ready st th i =
    let prog = progs.(th) in
    (match cls_of prog.(i) with None -> false | Some _ -> true)
    && st.performed.(th) land (1 lsl i) = 0
    && (* register operands resolved *)
    List.for_all (fun r -> reg_resolved st th r) (Lang.reads_regs prog.(i))
    && (* every earlier instruction that must stay ordered has performed *)
    (let rec chk j =
       j >= i
       ||
       match cls_of prog.(j) with
       | None -> chk (j + 1)
       | Some _ ->
         (st.performed.(th) land (1 lsl j) <> 0 || not (must_order model prog j i))
         && chk (j + 1)
     in
     chk 0)
  in
  let perform st th i =
    let prog = progs.(th) in
    let performed = Array.copy st.performed in
    performed.(th) <- performed.(th) lor (1 lsl i);
    match prog.(i) with
    | Lang.Load { var; reg; _ } ->
      let v = assoc_get var st.mem in
      { performed; mem = st.mem; regs = assoc_set (reg_name th reg) v st.regs }
    | Lang.Store { var; v; _ } ->
      let value =
        match v with Lang.Const c -> c | Lang.Reg r -> assoc_get (reg_name th r) st.regs
      in
      { performed; mem = assoc_set var value st.mem; regs = st.regs }
    | Lang.Fence _ -> assert false
  in
  let total_ops th =
    Array.fold_left
      (fun acc i -> match cls_of i with Some _ -> acc + 1 | None -> acc)
      0 progs.(th)
  in
  let done_ st =
    let ok = ref true in
    for th = 0 to nthreads - 1 do
      let cnt = ref 0 in
      Array.iteri
        (fun i instr ->
          match cls_of instr with
          | Some _ -> if st.performed.(th) land (1 lsl i) <> 0 then incr cnt
          | None -> ())
        progs.(th);
      if !cnt <> total_ops th then ok := false
    done;
    !ok
  in
  let final_outcome st =
    (* registers plus final memory (as "mem:<var>" bindings), so tests
       can constrain final state — needed for e.g. 2+2W. *)
    List.sort compare (st.regs @ List.map (fun (v, x) -> ("mem:" ^ v, x)) st.mem)
  in
  let rec dfs st =
    let k = key st in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      if done_ st then Hashtbl.replace outcomes (final_outcome st) ()
      else
        for th = 0 to nthreads - 1 do
          Array.iteri
            (fun i _ -> if ready st th i then dfs (perform st th i))
            progs.(th)
        done
    end
  in
  dfs { performed = Array.make nthreads 0; mem = init_mem; regs = [] };
  List.sort compare (Hashtbl.fold (fun o () acc -> o :: acc) outcomes [])

let allows model t =
  let outs = enumerate model t in
  List.exists (fun o -> Lang.eval t.interesting (fun r -> assoc_get r o)) outs

let verify_expectations t =
  let wmm = allows Wmm t and tso = allows Tso t in
  let ok = wmm = t.expect_wmm && tso = t.expect_tso in
  ( ok,
    Printf.sprintf "wmm: allowed=%b (expected %b); tso: allowed=%b (expected %b)" wmm
      t.expect_wmm tso t.expect_tso )
