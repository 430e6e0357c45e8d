type reg = string

type value = Const of int64 | Reg of reg

type fence = F_dmb_full | F_dmb_st | F_dmb_ld | F_dsb | F_isb

type instr =
  | Load of { var : string; reg : reg; acquire : bool; addr_dep : reg option }
  | Store of { var : string; v : value; release : bool; addr_dep : reg option }
  | Fence of fence

type thread = instr list

type part = Word | Hi | Lo

type atom = { key : string; part : part; eq : bool; value : int64 }

type pred = Never | All of atom list

let eq ?(part = Word) key value = { key; part; eq = true; value }
let ne ?(part = Word) key value = { key; part; eq = false; value }

let ops =
  [
    ("=", (Word, true));
    ("!=", (Word, false));
    ("hi=", (Hi, true));
    ("hi!=", (Hi, false));
    ("lo=", (Lo, true));
    ("lo!=", (Lo, false));
  ]

let op_name a = fst (List.find (fun (_, pe) -> pe = (a.part, a.eq)) ops)

let eval p lookup =
  match p with
  | Never -> false
  | All atoms ->
    List.for_all
      (fun a ->
        let v = lookup a.key in
        let v =
          match a.part with
          | Word -> v
          | Hi -> Int64.shift_right_logical v 32
          | Lo -> Int64.logand v 0xFFFF_FFFFL
        in
        Int64.equal v a.value = a.eq)
      atoms

let map_keys f = function
  | Never -> Never
  | All atoms -> All (List.map (fun a -> { a with key = f a.key }) atoms)

let normalize = function Never -> Never | All atoms -> All (List.sort_uniq compare atoms)

type binding = Thread_reg of int * string | Mem_var of string

let binding_of_key k =
  match String.index_opt k ':' with
  | None -> None
  | Some i -> (
    let pre = String.sub k 0 i and name = String.sub k (i + 1) (String.length k - i - 1) in
    if name = "" then None
    else if pre = "mem" then Some (Mem_var name)
    else
      match int_of_string_opt pre with
      | Some th when th >= 0 && string_of_int th = pre -> Some (Thread_reg (th, name))
      | _ -> None)

type test = {
  name : string;
  description : string;
  init : (string * int64) list;
  threads : thread list;
  interesting : pred;
  expect_tso : bool;
  expect_wmm : bool;
}

let ld ?(acquire = false) ?addr_dep var reg = Load { var; reg; acquire; addr_dep }

let st ?(release = false) ?addr_dep var v = Store { var; v = Const v; release; addr_dep }

let st_reg ?(release = false) var r = Store { var; v = Reg r; release; addr_dep = None }

let fence f = Fence f

let var_of = function
  | Load { var; _ } | Store { var; _ } -> Some var
  | Fence _ -> None

let vars t =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (v, _) -> Hashtbl.replace tbl v ()) t.init;
  List.iter
    (fun th ->
      List.iter
        (fun i -> match var_of i with Some v -> Hashtbl.replace tbl v () | None -> ())
        th)
    t.threads;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let writes_reg = function
  | Load { reg; _ } -> Some reg
  | Store _ | Fence _ -> None

let reads_regs = function
  | Load { addr_dep; _ } -> ( match addr_dep with Some r -> [ r ] | None -> [])
  | Store { v; addr_dep; _ } ->
    let l = match v with Reg r -> [ r ] | Const _ -> [] in
    (match addr_dep with Some r -> r :: l | None -> l)
  | Fence _ -> []

let regs_of_thread th = List.filter_map writes_reg th

let fence_to_string = function
  | F_dmb_full -> "dmb"
  | F_dmb_st -> "dmb st"
  | F_dmb_ld -> "dmb ld"
  | F_dsb -> "dsb"
  | F_isb -> "ctrl+isb"

let pp_instr ppf = function
  | Load { var; reg; acquire; addr_dep } ->
    Format.fprintf ppf "%s := %s%s%s" reg
      (if acquire then "ldar " else "ldr ")
      var
      (match addr_dep with Some r -> " [addr dep " ^ r ^ "]" | None -> "")
  | Store { var; v; release; addr_dep } ->
    Format.fprintf ppf "%s%s := %s%s"
      (if release then "stlr " else "str ")
      var
      (match v with Const c -> Int64.to_string c | Reg r -> r)
      (match addr_dep with Some r -> " [addr dep " ^ r ^ "]" | None -> "")
  | Fence f -> Format.fprintf ppf "%s" (fence_to_string f)
