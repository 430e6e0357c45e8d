module Lang = Armb_litmus.Lang

(* Canonical renaming: shared variables in order of first appearance
   scanning threads in program order (variables referenced only by the
   init section follow, ordered by initial value — such variables are
   interchangeable, so ties cannot change the serialization); registers
   per thread in order of first occurrence (uses before definitions
   included, since a use of a never-written register reads 0 and is
   still part of the program's shape). *)

let build_maps (t : Lang.test) =
  let vmap : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let vnext = ref 0 in
  let see_var v =
    if not (Hashtbl.mem vmap v) then begin
      Hashtbl.add vmap v (Printf.sprintf "v%d" !vnext);
      incr vnext
    end
  in
  let rmaps =
    List.map
      (fun th ->
        let rmap : (string, string) Hashtbl.t = Hashtbl.create 8 in
        let rnext = ref 0 in
        let see_reg r =
          if not (Hashtbl.mem rmap r) then begin
            Hashtbl.add rmap r (Printf.sprintf "r%d" !rnext);
            incr rnext
          end
        in
        List.iter
          (fun instr ->
            (match instr with
            | Lang.Load { var; _ } | Lang.Store { var; _ } -> see_var var
            | Lang.Fence _ -> ());
            match instr with
            | Lang.Load { reg; addr_dep; _ } ->
              Option.iter see_reg addr_dep;
              see_reg reg
            | Lang.Store { v; addr_dep; _ } -> (
              Option.iter see_reg addr_dep;
              match v with Lang.Reg r -> see_reg r | Lang.Const _ -> ())
            | Lang.Fence _ -> ())
          th;
        rmap)
      t.threads
  in
  (* init-only variables, ordered by initial value *)
  let init_only =
    List.filter (fun (v, _) -> not (Hashtbl.mem vmap v)) t.init
    |> List.sort (fun (_, a) (_, b) -> Int64.compare a b)
  in
  List.iter (fun (v, _) -> see_var v) init_only;
  (vmap, rmaps)

(* One instruction, its variable and register names mapped through
   [var] and [reg]. *)
let instr_text ~var:cv ~reg:cr = function
  | Lang.Load { var; reg; acquire; addr_dep } ->
    Printf.sprintf "L %s %s a%d d%s" (cv var) (cr reg)
      (if acquire then 1 else 0)
      (match addr_dep with Some r -> cr r | None -> "-")
  | Lang.Store { var; v; release; addr_dep } ->
    Printf.sprintf "S %s %s l%d d%s" (cv var)
      (match v with Lang.Const k -> Printf.sprintf "c%Ld" k | Lang.Reg r -> cr r)
      (if release then 1 else 0)
      (match addr_dep with Some r -> cr r | None -> "-")
  | Lang.Fence f -> "F " ^ Lang.fence_to_string f

(* The predicate as one line, in its normal form: conjunct order and
   repeats are presentation. *)
let pred_line p =
  match Lang.normalize p with
  | Lang.Never -> "P never\n"
  | Lang.All atoms ->
    let atom (a : Lang.atom) = Printf.sprintf "%s %S %Ld" (Lang.op_name a) a.key a.value in
    "P " ^ String.concat " & " (List.map atom atoms) ^ "\n"

let canonical_test (t : Lang.test) =
  let vmap, rmaps = build_maps t in
  let cvar v = try Hashtbl.find vmap v with Not_found -> "v?" ^ v in
  let creg i r =
    match List.nth_opt rmaps i with
    | Some m -> ( try Hashtbl.find m r with Not_found -> "r?" ^ r)
    | None -> "r?" ^ r
  in
  let b = Buffer.create 512 in
  (* threads *)
  List.iteri
    (fun i th ->
      Buffer.add_string b (Printf.sprintf "T%d|" i);
      List.iter
        (fun instr ->
          Buffer.add_string b (instr_text ~var:cvar ~reg:(creg i) instr);
          Buffer.add_char b ';')
        th;
      Buffer.add_char b '\n')
    t.threads;
  (* init: every canonical variable with its (default-0) initial value,
     sorted by canonical name — binding order and explicit zeros are
     presentation *)
  let inits =
    Hashtbl.fold
      (fun v cv acc ->
        let x = match List.assoc_opt v t.init with Some x -> x | None -> 0L in
        (cv, x) :: acc)
      vmap []
    |> List.sort compare
  in
  List.iter (fun (cv, x) -> Buffer.add_string b (Printf.sprintf "I %s=%Ld\n" cv x)) inits;
  Buffer.add_string b (Printf.sprintf "E tso=%b wmm=%b\n" t.expect_tso t.expect_wmm);
  (* the predicate, its keys renamed with the program *)
  let rename k =
    match Lang.binding_of_key k with
    | Some (Lang.Mem_var v) -> "mem:" ^ cvar v
    | Some (Lang.Thread_reg (i, r)) -> Printf.sprintf "%d:%s" i (creg i r)
    | None -> k
  in
  Buffer.add_string b (pred_line (Lang.map_keys rename t.interesting));
  Buffer.contents b

module Cfg = Armb_litmus.Cfg

(* CFG programs are keyed structurally — surface names and all, with
   no renaming pass: a renamed variant merely misses the cache (costs a
   recomputation, never a wrong coalesce). *)
let canonical_program (p : Cfg.program) =
  let b = Buffer.create 512 in
  let add_instr instr =
    Buffer.add_string b (instr_text ~var:Fun.id ~reg:Fun.id instr);
    Buffer.add_char b ';'
  in
  List.iteri
    (fun i (th : Cfg.thread_cfg) ->
      Buffer.add_string b (Printf.sprintf "T%d entry=%s\n" i th.Cfg.entry);
      List.iter
        (fun (blk : Cfg.block) ->
          Buffer.add_string b (Printf.sprintf "B %s|" blk.Cfg.label);
          List.iter add_instr blk.Cfg.body;
          (match blk.Cfg.term with
          | Cfg.Goto l -> Buffer.add_string b ("goto " ^ l)
          | Cfg.Branch { reg; if_nonzero; if_zero } ->
            Buffer.add_string b
              (Printf.sprintf "br %s %s %s" reg if_nonzero if_zero)
          | Cfg.Return -> Buffer.add_string b "ret");
          Buffer.add_char b '\n')
        th.Cfg.blocks)
    p.Cfg.threads;
  List.iter
    (fun (v, x) -> Buffer.add_string b (Printf.sprintf "I %s=%Ld\n" v x))
    (List.sort compare p.Cfg.init);
  Buffer.add_string b
    (Printf.sprintf "E tso=%b wmm=%b\n" p.Cfg.expect_tso p.Cfg.expect_wmm);
  Buffer.add_string b (pred_line p.Cfg.interesting);
  Buffer.contents b

let digest s = Digest.to_hex (Digest.string s)
