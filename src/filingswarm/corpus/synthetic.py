"""Desk-scale synthetic corpus generator.

Builds a coherent universe of advisers, managers, trusts, and funds, then
emits filings for every filing type for every period in ``PERIODS``. Cross
filing linkage is guaranteed by construction: portfolio holdings reference
fund identifiers that appear in the census fund registry, money market funds
appear both in the census and in the money market filings, and advisers in
the census match the adviser registration filings.

Generation is a pure function of (config, seed). Structural tables (entity
and fund summaries, registries) emit one row per entity per period; value
tables (holdings, derivatives, statement items) are scaled toward
``records_per_table`` with small floors so every question template stays
answerable.

A configurable fraction of filings receives one amendment that restates the
filing with perturbed values; reconciliation then keeps only the amendment.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from datetime import date, timedelta
from typing import Any

from .records import CorpusStore, FilingRecord
from .schema import FilingType, SchemaRegistry, load_default_registry

# Canonical statement line items and their per-filer label variants. The
# oracle for annual-report questions resolves labels through this table; the
# routing and planning rule providers deliberately do not.
STATEMENT_LABELS: dict[str, tuple[str, list[str]]] = {
    "TOTAL_ASSETS": ("assets_liabilities", [
        "Total assets",
        "TOTAL ASSETS",
        "Assets, total",
        "Total Assets (Note 2)",
        "Sum of assets",
    ]),
    "TOTAL_LIABILITIES": ("assets_liabilities", [
        "Total liabilities",
        "TOTAL LIABILITIES",
        "Liabilities, total",
        "Total Liabilities (Note 2)",
        "Sum of liabilities",
    ]),
    "NET_ASSETS": ("assets_liabilities", [
        "Net assets",
        "NET ASSETS",
        "Net assets applicable to shareholders",
        "Total net assets",
        "Net Assets (Note 3)",
    ]),
    "INVESTMENT_INCOME": ("operations", [
        "Total investment income",
        "TOTAL INVESTMENT INCOME",
        "Investment income, total",
        "Total Investment Income",
        "Income from investments",
    ]),
    "TOTAL_EXPENSES": ("operations", [
        "Total expenses",
        "TOTAL EXPENSES",
        "Expenses, total",
        "Total Expenses (Note 4)",
        "Sum of expenses",
    ]),
    "NET_INVESTMENT_INCOME": ("operations", [
        "Net investment income",
        "NET INVESTMENT INCOME",
        "Net investment income (loss)",
        "Investment income, net",
        "Net Investment Income",
    ]),
}

PERIODS = (date(2023, 3, 31), date(2023, 6, 30))
FUND_TYPES = ["equity", "bond", "mixed", "money market"]
INSTRUMENT_TYPES = ["common stock", "corporate bond", "government bond", "preferred stock", "convertible note"]
DERIVATIVE_TYPES = ["custom basket", "swap", "option", "future", "forward"]
MMF_CATEGORIES = ["treasury", "repo", "certificate of deposit", "commercial paper"]
BROKER_RELATIONS = ["prime broker", "custodian", "clearing broker"]
COUNTRIES = ["United States", "United Kingdom", "Japan", "Germany", "France", "Canada", "Switzerland", "Australia"]

_NAME_A = [
    "Blue", "Granite", "Summit", "Harbor", "Ivory", "Cedar", "Atlas", "Beacon",
    "Crescent", "Falcon", "Juniper", "Cascade", "Meridian", "Aurora", "Redwood",
    "Sterling", "Willow", "Cobalt", "Lantern", "Northgate", "Pinnacle", "Quarry",
    "Silverleaf", "Vantage",
]
_NAME_B = [
    "Ridge", "Point", "Gate", "Field", "Brook", "Crown", "Vale", "Cliff",
    "Spring", "Haven", "Crest", "Hollow", "Reach", "Bend", "Shore", "Grove",
    "Path", "Bluff", "Peak", "Landing",
]
_ADVISOR_SUFFIX = ["Capital Management", "Advisors", "Asset Management", "Partners", "Investment Counsel"]
_MANAGER_SUFFIX = ["Investments", "Capital", "Securities", "Holdings", "Management"]
_FUND_SUFFIX = ["Fund", "Growth Fund", "Income Fund", "Opportunities Fund", "Index Fund"]
_BANKS = [
    "First Meridian Bank", "Northgate Securities", "Cobalt Brothers", "Anchorline Bank",
    "Pacific Crest Markets", "Eastbridge Bank", "Ironwood Securities", "Halcyon Markets",
    "Stonebridge Bank", "Veritas Clearing",
]
_BROKERS = [
    "Keystone Prime Services", "Harborview Brokerage", "Crestline Clearing", "Bluewater Prime",
    "Foxglove Securities", "Midland Prime Services", "Northstar Clearing", "Saltgrass Brokerage",
    "Longmeadow Prime", "Westbrook Clearing", "Gilded Gate Services", "Thornfield Prime",
]
_AUDITORS = [
    "Hartwell & Finch", "Merrow Audit Group", "Caldwell Rhodes", "Pembroke Associates",
    "Ashgrove Partners", "Dunmore & Clay",
]
_UNDERLYINGS = [
    "Large Cap Composite", "Small Cap Composite", "Global Tech Basket", "Energy Sector Basket",
    "Financials Basket", "Healthcare Basket", "Emerging Markets Basket", "Dividend Leaders Basket",
    "Commodity Futures Basket", "Rates Composite",
]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the generator; validated on construction."""

    records_per_table: int = 500
    filers: int = 8
    amendment_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.records_per_table < 0:
            raise ConfigError("records_per_table must be >= 0")
        if self.filers < 1:
            raise ConfigError("filers must be >= 1")
        if not 0.0 <= self.amendment_fraction <= 1.0:
            raise ConfigError("amendment_fraction must be in [0, 1]")


@dataclass
class _Entity:
    ident: str
    name: str
    extra: dict[str, Any] = dc_field(default_factory=dict)


class _Universe:
    """Deterministic entity universe shared by all filings."""

    def __init__(self, config: SyntheticConfig, rng: random.Random):
        used: set[str] = set()

        def make_name(suffixes: list[str]) -> str:
            for _ in range(200):
                name = f"{rng.choice(_NAME_A)} {rng.choice(_NAME_B)} {rng.choice(suffixes)}"
                if name not in used:
                    used.add(name)
                    return name
            name = f"{rng.choice(_NAME_A)} {rng.choice(_NAME_B)} {len(used)}"
            used.add(name)
            return name

        n = config.filers
        self.advisors = [_Entity(f"ADV{i:04d}", make_name(_ADVISOR_SUFFIX)) for i in range(n)]
        self.managers = [_Entity(f"MGR{i:04d}", make_name(_MANAGER_SUFFIX)) for i in range(n)]
        self.trusts = [_Entity(f"TR{i:04d}", make_name(["Trust", "Series Trust", "Funds Trust"])) for i in range(max(1, n // 2))]
        self.funds: list[_Entity] = []
        for i in range(2 * n):
            fund = _Entity(f"FND{i:04d}", make_name(_FUND_SUFFIX))
            fund.extra["trust"] = self.trusts[i % len(self.trusts)]
            fund.extra["advisor"] = self.advisors[i % len(self.advisors)]
            fund.extra["fund_type"] = FUND_TYPES[i % len(FUND_TYPES)]
            self.funds.append(fund)
        self.issuers = []
        for i in range(60):
            self.issuers.append(_Entity(
                f"CUS{i:06d}",
                make_name(["Industries", "Corp", "Group", "Technologies", "Energy"]),
                {"country": COUNTRIES[i % len(COUNTRIES)]},
            ))

    def mm_funds(self) -> list[_Entity]:
        return [f for f in self.funds if f.extra["fund_type"] == "money market"]

    def portfolio_funds(self) -> list[_Entity]:
        return [f for f in self.funds if f.extra["fund_type"] != "money market"]

    def trust_funds(self, trust: _Entity) -> list[_Entity]:
        return [f for f in self.funds if f.extra["trust"] is trust]


class _Builder:
    def __init__(self, store: CorpusStore):
        self.store = store
        self.accessions: list[str] = []
        self._row_no: dict[str, int] = {}

    def open_filing(self, filing_type: FilingType, filer_id: str, period: date) -> str:
        acc = f"A-{filing_type.name}-{filer_id}-{period.isoformat()}-0"
        self.accessions.append(acc)
        return acc

    def row(self, acc: str, filing_type: FilingType, table_id: str, filer_id: str,
            period: date, fields: dict[str, Any], is_amendment: bool = False,
            amends: str | None = None) -> None:
        no = self._row_no.get(acc, 0)
        self._row_no[acc] = no + 1
        self.store.add(FilingRecord(
            record_id=f"{acc}:{table_id}:{no:05d}",
            accession_id=acc,
            filing_type=filing_type,
            table_id=table_id,
            filer_id=filer_id,
            period=period,
            is_amendment=is_amendment,
            amends=amends,
            fields=dict(fields, period=period.isoformat()),
        ))


def _money(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 2)


def generate_synthetic(config: SyntheticConfig, seed: int,
                       registry: SchemaRegistry | None = None) -> CorpusStore:
    """Generate a corpus; deterministic for a fixed (config, seed)."""
    registry = registry or load_default_registry()
    rng = random.Random(seed)
    universe = _Universe(config, rng)
    store = CorpusStore(registry)
    builder = _Builder(store)

    if config.records_per_table == 0:
        return store

    n_periods = len(PERIODS)
    target = config.records_per_table

    def per_filing(n_filings: int, floor: int) -> int:
        return max(floor, round(target / max(1, n_filings)))

    rows_13f = per_filing(len(universe.managers) * n_periods, 3)
    rows_nport_hold = per_filing(len(universe.portfolio_funds()) * n_periods, 3)
    rows_nport_deriv = per_filing(len(universe.portfolio_funds()) * n_periods, 2)
    rows_nmfp_hold = per_filing(len(universe.mm_funds()) * n_periods, 2)
    rows_ncsr_port = per_filing(len(universe.funds) * n_periods, 2)
    rows_adv_brokers = per_filing(len(universe.advisors) * n_periods, 2)
    rows_adv_disc = per_filing(len(universe.advisors) * n_periods, 1)

    for period in PERIODS:
        _gen_13f(builder, universe, rng, period, rows_13f)
        _gen_adv(builder, universe, rng, period, rows_adv_brokers, rows_adv_disc)
        _gen_ncen(builder, universe, rng, period)
        _gen_nport(builder, universe, rng, period, rows_nport_hold, rows_nport_deriv)
        _gen_nmfp(builder, universe, rng, period, rows_nmfp_hold)
        _gen_ncsr(builder, universe, rng, period, rows_ncsr_port)

    _gen_amendments(builder, store, rng, config.amendment_fraction)
    return store


def _gen_13f(builder: _Builder, universe: _Universe, rng: random.Random,
             period: date, rows: int) -> None:
    t = FilingType.THIRTEEN_F
    for manager in universe.managers:
        acc = builder.open_filing(t, manager.ident, period)
        picks = rng.sample(universe.issuers, min(rows, len(universe.issuers)))
        for i, issuer in enumerate(picks):
            # First row is always cash equity and the second an option, so
            # every filing supports both position-type questions.
            if i == 0:
                klass, put_call = "COM", None
            elif i == 1:
                klass = rng.choice(["OPT-CALL", "OPT-PUT"])
                put_call = klass.split("-")[1]
            elif rng.random() < 0.7:
                klass, put_call = "COM", None
            else:
                klass = rng.choice(["OPT-CALL", "OPT-PUT"])
                put_call = klass.split("-")[1]
            builder.row(acc, t, "thirteenf_holdings", manager.ident, period, {
                "manager_id": manager.ident,
                "manager_name": manager.name,
                "issuer_name": issuer.name,
                "cusip": issuer.ident,
                "security_class": klass,
                "put_call": put_call,
                "value_usd": _money(rng, 1e5, 5e7),
                "shares": rng.randrange(1_000, 2_000_000),
            })


def _gen_adv(builder: _Builder, universe: _Universe, rng: random.Random,
             period: date, rows_brokers: int, rows_disc: int) -> None:
    t = FilingType.ADV
    for advisor in universe.advisors:
        acc = builder.open_filing(t, advisor.ident, period)
        builder.row(acc, t, "adv_entity", advisor.ident, period, {
            "advisor_id": advisor.ident,
            "advisor_name": advisor.name,
            "regulatory_aum": _money(rng, 1e8, 5e10),
            "employee_count": rng.randrange(5, 2_000),
            "client_count": rng.randrange(10, 5_000),
            "state": rng.choice(["NY", "MA", "CT", "CA", "IL", "TX"]),
        })
        brokers = rng.sample(_BROKERS, min(max(rows_brokers, 1), len(_BROKERS)))
        for i, broker in enumerate(brokers):
            relation = "prime broker" if i == 0 else rng.choice(BROKER_RELATIONS)
            builder.row(acc, t, "adv_brokers", advisor.ident, period, {
                "advisor_id": advisor.ident,
                "advisor_name": advisor.name,
                "broker_name": broker,
                "relation": relation,
            })
        events = rng.sample(["customer complaint", "regulatory action", "fee dispute", "late filing"],
                            min(rows_disc, 4))
        for event in events:
            builder.row(acc, t, "adv_disclosures", advisor.ident, period, {
                "advisor_id": advisor.ident,
                "advisor_name": advisor.name,
                "event_type": event,
                "event_date": (period - timedelta(days=rng.randrange(30, 900))).isoformat(),
                "resolved": rng.choice(["yes", "no"]),
            })


def _gen_ncen(builder: _Builder, universe: _Universe, rng: random.Random, period: date) -> None:
    t = FilingType.NCEN
    for trust in universe.trusts:
        funds = universe.trust_funds(trust)
        acc = builder.open_filing(t, trust.ident, period)
        for fund in funds:
            advisor = fund.extra["advisor"]
            builder.row(acc, t, "ncen_fund_registry", trust.ident, period, {
                "trust_id": trust.ident,
                "fund_id": fund.ident,
                "fund_name": fund.name,
                "advisor_id": advisor.ident,
                "advisor_name": advisor.name,
                "fund_type": fund.extra["fund_type"],
            })
            for role, pool in (("auditor", _AUDITORS), ("custodian", _BANKS)):
                builder.row(acc, t, "ncen_service_providers", trust.ident, period, {
                    "fund_id": fund.ident,
                    "fund_name": fund.name,
                    "provider_role": role,
                    "provider_name": rng.choice(pool),
                })
        builder.row(acc, t, "ncen_trust_registry", trust.ident, period, {
            "trust_id": trust.ident,
            "trust_name": trust.name,
            "fund_count": len(funds),
            "fund_ids": [f.ident for f in funds],
        })


def _gen_nport(builder: _Builder, universe: _Universe, rng: random.Random,
               period: date, rows_hold: int, rows_deriv: int) -> None:
    t = FilingType.NPORT
    for fund in universe.portfolio_funds():
        acc = builder.open_filing(t, fund.ident, period)
        total = _money(rng, 5e8, 2e10)
        builder.row(acc, t, "nport_fund_info", fund.ident, period, {
            "fund_id": fund.ident,
            "fund_name": fund.name,
            "series_id": f"S{fund.ident[3:]}",
            "total_assets": total,
            "net_assets": round(total * rng.uniform(0.9, 0.99), 2),
        })
        picks = rng.sample(universe.issuers, min(rows_hold, len(universe.issuers)))
        for issuer in picks:
            builder.row(acc, t, "nport_holdings", fund.ident, period, {
                "fund_id": fund.ident,
                "issuer_name": issuer.name,
                "cusip": issuer.ident,
                "instrument_type": rng.choice(INSTRUMENT_TYPES),
                "country": issuer.extra["country"],
                "value_usd": _money(rng, 1e5, 2e8),
                "shares": rng.randrange(1_000, 5_000_000),
            })
        used_keys: set[tuple] = set()
        emitted = 0
        attempts = 0
        while emitted < rows_deriv and attempts < rows_deriv * 8:
            attempts += 1
            # Guarantee at least one custom basket per filing.
            dtype = "custom basket" if emitted == 0 else rng.choice(DERIVATIVE_TYPES)
            counterparty = rng.choice(_BANKS)
            underlying = rng.choice(_UNDERLYINGS)
            key = (dtype, counterparty, underlying)
            if key in used_keys:
                continue
            used_keys.add(key)
            builder.row(acc, t, "nport_derivatives", fund.ident, period, {
                "fund_id": fund.ident,
                "derivative_type": dtype,
                "counterparty_name": counterparty,
                "underlying": underlying,
                "notional_value": _money(rng, 1e6, 5e8),
                "expiration_date": (period + timedelta(days=rng.randrange(30, 540))).isoformat(),
            })
            emitted += 1


def _gen_nmfp(builder: _Builder, universe: _Universe, rng: random.Random,
              period: date, rows_hold: int) -> None:
    t = FilingType.NMFP
    for fund in universe.mm_funds():
        acc = builder.open_filing(t, fund.ident, period)
        builder.row(acc, t, "nmfp_fund_info", fund.ident, period, {
            "fund_id": fund.ident,
            "fund_name": fund.name,
            "net_assets": _money(rng, 1e8, 8e9),
            "seven_day_yield": round(rng.uniform(0.5, 5.5), 4),
            "wam_days": rng.randrange(10, 60),
        })
        used: set[tuple] = set()
        emitted = 0
        attempts = 0
        while emitted < rows_hold and attempts < rows_hold * 8:
            attempts += 1
            issuer = rng.choice(universe.issuers)
            category = rng.choice(MMF_CATEGORIES)
            maturity = (period + timedelta(days=rng.randrange(1, 90))).isoformat()
            key = (issuer.name, category, maturity)
            if key in used:
                continue
            used.add(key)
            builder.row(acc, t, "nmfp_holdings", fund.ident, period, {
                "fund_id": fund.ident,
                "issuer_name": issuer.name,
                "category": category,
                "value_usd": _money(rng, 1e6, 5e8),
                "maturity_date": maturity,
            })
            emitted += 1


def _gen_ncsr(builder: _Builder, universe: _Universe, rng: random.Random,
              period: date, rows_port: int) -> None:
    t = FilingType.NCSR
    for trust in universe.trusts:
        funds = universe.trust_funds(trust)
        acc = builder.open_filing(t, trust.ident, period)
        # One label style per filer: the same trust words its line items
        # consistently, but styles differ across trusts.
        style = rng.randrange(5)
        for fund in funds:
            builder.row(acc, t, "ncsr_report_meta", trust.ident, period, {
                "fund_id": fund.ident,
                "fund_name": fund.name,
                "auditor_name": rng.choice(_AUDITORS),
                "fiscal_year_end": period.isoformat(),
            })
            liabilities = _money(rng, 1e6, 5e8)
            net_assets = _money(rng, 1e8, 1e10)
            income = _money(rng, 1e6, 5e8)
            expenses = _money(rng, 5e5, 2e8)
            values = {
                "TOTAL_ASSETS": round(liabilities + net_assets, 2),
                "TOTAL_LIABILITIES": liabilities,
                "NET_ASSETS": net_assets,
                "INVESTMENT_INCOME": income,
                "TOTAL_EXPENSES": expenses,
                "NET_INVESTMENT_INCOME": round(income - expenses, 2),
            }
            for item, (statement, variants) in STATEMENT_LABELS.items():
                builder.row(acc, t, "ncsr_statement_items", trust.ident, period, {
                    "fund_id": fund.ident,
                    "fund_name": fund.name,
                    "statement": statement,
                    "label": variants[style],
                    "value_usd": values[item],
                })
            picks = rng.sample(universe.issuers, min(rows_port, len(universe.issuers)))
            for issuer in picks:
                builder.row(acc, t, "ncsr_portfolio", trust.ident, period, {
                    "fund_id": fund.ident,
                    "fund_name": fund.name,
                    "security_name": issuer.name,
                    "value_usd": _money(rng, 1e5, 1e8),
                })


def _gen_amendments(builder: _Builder, store: CorpusStore, rng: random.Random,
                    fraction: float) -> None:
    if fraction <= 0:
        return
    base_accessions = list(builder.accessions)
    for acc in base_accessions:
        if rng.random() >= fraction:
            continue
        originals = store.by_accession[acc]
        first = originals[0]
        amended = f"{acc}-A1"
        for original in originals:
            schema = store.registry.table(original.table_id)
            fields = dict(original.fields)
            for fname in schema.field_names:
                if schema.field_kind(fname) == "number" and fname not in schema.key_fields:
                    value = fields.get(fname)
                    if isinstance(value, float):
                        fields[fname] = round(value * rng.uniform(0.98, 1.02), 2)
            builder.row(amended, first.filing_type, original.table_id, first.filer_id,
                        first.period, fields, is_amendment=True, amends=acc)
