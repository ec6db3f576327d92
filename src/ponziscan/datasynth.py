"""Seeded synthetic contract corpus.

The real labeled corpus is not redistributable, so pipeline-level checks
run against generated Solidity: Ponzi-style contracts (deposits fan out to
earlier investors) and several benign families (token, wallet, registry,
auction). generate_published_shape reproduces the published corpus shape
(6,498 records, 318 positives, with the 250th positive preceded by exactly
5,740 negatives) so the split protocols land on their documented sizes.
"""

from __future__ import annotations

import numpy as np

from ponziscan.pipeline import TRAIN_PONZI_COUNT, ContractRecord

PUBLISHED_TOTAL = 6498
PUBLISHED_PONZI = 318
PUBLISHED_TRAIN = 5990

_NAME_STEMS = ("Alpha", "Nova", "Orion", "Vault", "Lux", "Apex", "Zen",
               "Echo", "Titan", "Mint", "Delta", "Quint")
_TOKEN_NAMES = ("Coin", "Token", "Cash", "Bit", "Share", "Point")


def _contract_name(rng: np.random.Generator, kind: str) -> str:
    stem = _NAME_STEMS[int(rng.integers(0, len(_NAME_STEMS)))]
    return f"{stem}{kind}{int(rng.integers(10, 100))}"


def _ponzi_source(rng: np.random.Generator) -> str:
    name = _contract_name(rng, "Fund")
    fee = int(rng.integers(3, 12))
    share = int(rng.integers(10, 30))
    minimum = int(rng.integers(1, 9))
    return f"""pragma solidity ^0.4.19;

contract {name} {{
    struct Investor {{ address addr; uint amount; }}
    Investor[] public investors;
    mapping(address => uint) public balances;
    address public owner;
    uint public totalRaised;
    uint public feeRate = {fee};

    function {name}() public {{
        owner = msg.sender;
    }}

    function() public payable {{
        invest();
    }}

    function invest() public payable {{
        require(msg.value >= {minimum} * 100 finney);
        uint fee = msg.value * feeRate / 100;
        balances[owner] += fee;
        totalRaised += msg.value;
        investors.push(Investor(msg.sender, msg.value));
        uint payout = msg.value - fee;
        uint i = 0;
        while (i < investors.length) {{
            uint slice = investors[i].amount * {share} / 100;
            if (slice > payout) {{
                slice = payout;
            }}
            investors[i].addr.transfer(slice);
            payout -= slice;
            i++;
        }}
    }}

    function withdrawFee() public {{
        require(msg.sender == owner);
        uint amount = balances[owner];
        balances[owner] = 0;
        owner.transfer(amount);
    }}
}}
"""


def _token_source(rng: np.random.Generator) -> str:
    name = _contract_name(rng, _TOKEN_NAMES[int(rng.integers(0, len(_TOKEN_NAMES)))])
    supply = int(rng.integers(1000, 100000))
    return f"""pragma solidity ^0.4.19;

contract {name} {{
    mapping(address => uint) public balanceOf;
    uint public totalSupply = {supply};
    address public minter;

    function {name}() public {{
        minter = msg.sender;
        balanceOf[msg.sender] = totalSupply;
    }}

    function transfer(address to, uint value) public returns (bool) {{
        require(balanceOf[msg.sender] >= value);
        balanceOf[msg.sender] -= value;
        balanceOf[to] += value;
        return true;
    }}

    function mint(address to, uint value) public {{
        require(msg.sender == minter);
        balanceOf[to] += value;
        totalSupply += value;
    }}
}}
"""


def _wallet_source(rng: np.random.Generator) -> str:
    name = _contract_name(rng, "Wallet")
    limit = int(rng.integers(5, 50))
    return f"""pragma solidity ^0.4.19;

contract {name} {{
    address public owner;
    uint public dailyLimit = {limit} ether;
    uint public spentToday;

    function {name}() public {{
        owner = msg.sender;
    }}

    function() public payable {{}}

    function spend(address to, uint amount) public {{
        require(msg.sender == owner);
        uint next = spentToday + amount;
        require(next <= dailyLimit);
        spentToday = next;
        to.transfer(amount);
    }}

    function reset() public {{
        require(msg.sender == owner);
        spentToday = 0;
    }}
}}
"""


def _registry_source(rng: np.random.Generator) -> str:
    name = _contract_name(rng, "Registry")
    price = int(rng.integers(1, 20))
    return f"""pragma solidity ^0.4.19;

contract {name} {{
    mapping(bytes32 => address) public ownerOf;
    mapping(bytes32 => uint) public registeredAt;
    uint public fee = {price} finney;
    uint public count;

    function claim(bytes32 entry) public payable {{
        require(msg.value >= fee);
        require(ownerOf[entry] == address(0));
        ownerOf[entry] = msg.sender;
        registeredAt[entry] = block.timestamp;
        count += 1;
    }}

    function release(bytes32 entry) public {{
        require(ownerOf[entry] == msg.sender);
        ownerOf[entry] = address(0);
        count -= 1;
    }}
}}
"""


def _auction_source(rng: np.random.Generator) -> str:
    name = _contract_name(rng, "Auction")
    step = int(rng.integers(1, 10))
    return f"""pragma solidity ^0.4.19;

contract {name} {{
    address public highBidder;
    uint public highBid;
    uint public minStep = {step} finney;
    mapping(address => uint) public refunds;

    function bid() public payable {{
        require(msg.value >= highBid + minStep);
        if (highBidder != address(0)) {{
            refunds[highBidder] += highBid;
        }}
        highBidder = msg.sender;
        highBid = msg.value;
    }}

    function withdraw() public {{
        uint amount = refunds[msg.sender];
        refunds[msg.sender] = 0;
        msg.sender.transfer(amount);
    }}
}}
"""


_BENIGN = (_token_source, _wallet_source, _registry_source, _auction_source)


def make_source(label: int, rng: np.random.Generator) -> str:
    if label == 1:
        return _ponzi_source(rng)
    maker = _BENIGN[int(rng.integers(0, len(_BENIGN)))]
    return maker(rng)


def generate_corpus(n_total: int, n_ponzi: int, seed: int = 0) -> list[ContractRecord]:
    """n_total records with idx 1..n_total; n_ponzi positives placed
    uniformly at random (seeded)."""
    if not 0 <= n_ponzi <= n_total:
        raise ValueError("need 0 <= n_ponzi <= n_total")
    rng = np.random.default_rng(seed)
    positive_at = set(rng.choice(n_total, size=n_ponzi, replace=False).tolist())
    records = []
    for i in range(n_total):
        label = 1 if i in positive_at else 0
        records.append(ContractRecord(idx=i + 1, source=make_source(label, rng),
                                      label=label))
    return records


def generate_published_shape(seed: int = 0) -> list[ContractRecord]:
    """6,498 records, 318 positives, arranged so the fixed protocol splits
    into 5,990 train / 508 test: the 250th positive sits at position 5,990
    with 249 positives scattered before it and 68 after."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(PUBLISHED_TOTAL, dtype=np.int64)
    head = PUBLISHED_TRAIN - 1  # positions 0..5988 hold 249 positives
    head_pos = rng.choice(head, size=TRAIN_PONZI_COUNT - 1, replace=False)
    labels[head_pos] = 1
    labels[PUBLISHED_TRAIN - 1] = 1  # the 250th positive, position 5990 (1-based)
    tail = PUBLISHED_TOTAL - PUBLISHED_TRAIN
    tail_pos = rng.choice(tail, size=PUBLISHED_PONZI - TRAIN_PONZI_COUNT, replace=False)
    labels[PUBLISHED_TRAIN + tail_pos] = 1
    records = []
    for i in range(PUBLISHED_TOTAL):
        label = int(labels[i])
        records.append(ContractRecord(idx=i + 1, source=make_source(label, rng),
                                      label=label))
    return records
